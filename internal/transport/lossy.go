package transport

import "sync"

// FaultStats are the fault plane's counters. All fields are cumulative.
type FaultStats struct {
	Resends     int64 // retransmissions after drops/corruption
	Dropped     int64 // attempts lost in the network
	Duplicated  int64 // messages delivered twice
	Delayed     int64 // messages deferred to the next exchange
	Corrupted   int64 // attempts rejected by the receiver's checksum
	Failed      int64 // messages abandoned after the resend budget or at Close
	DroppedDown int64 // boundary messages addressed to a down receiver
}

// FaultPlane is the one implementation of the lossy-link protocol, run by
// the Lossy wrapper above a real backend and by internal/cluster's
// simulator. Only a TagBoundaryDV message to another rank is faulted:
// migration, row broadcasts and control traffic ride a reliable channel,
// because losing them would tear engine state rather than delay
// convergence. A faulted message to a down receiver is lost without retry;
// otherwise each attempt asks the hook for its fate, dropped and corrupted
// attempts are resent up to the budget, a duplicate delivers two copies, a
// delay holds the message until the next exchange, and a message that
// exhausts the budget waits in the abandoned list for TakeFailed.
//
// Corrupt fates are resolved sender-side: a real receiver's frame CRC would
// reject the frame and nack, so the effect — a detected loss, then a resend
// — is identical and stays deterministic (the schedule decides, not the
// network).
//
// Fates are keyed by (exchange, from, to, k, attempt), where k is the
// message's index among this exchange's messages from `from` to `to`: the
// schedule does not depend on whether one caller sends every rank's
// traffic or each rank sends its own. A nil hook is the perfect network.
type FaultPlane struct {
	hook FaultHook

	mu      sync.Mutex
	xid     int64
	k       map[[2]int]int // messages seen per (from, to) in this exchange
	delayed []Message
	failed  []Message
	st      FaultStats
}

// Delivery is the plane's verdict on one message.
type Delivery struct {
	Copies int  // copies the receiver gets: 0 (lost), 1, or 2 (duplicate)
	Held   bool // the copy is delayed: Begin releases it next exchange
	Slots  int  // message slots the sender's attempts occupied
}

// NewFaultPlane builds the plane over hook (nil = the perfect network).
func NewFaultPlane(hook FaultHook) *FaultPlane {
	return &FaultPlane{hook: hook, k: map[[2]int]int{}}
}

// Begin opens the next exchange. It returns the exchange number and the
// messages the previous exchange delayed, oldest first; those addressed to
// a receiver that went down meanwhile are lost.
func (pl *FaultPlane) Begin() (int64, []Message) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.xid++
	clear(pl.k)
	released := pl.delayed[:0]
	for _, msg := range pl.delayed {
		if pl.hook.Down(msg.To) {
			pl.st.DroppedDown++
			continue
		}
		released = append(released, msg)
	}
	pl.delayed = nil
	return pl.xid, released
}

// Send resolves one message of the current exchange (From must be set).
// Delivering the copies the verdict asks for is the caller's job; a held
// message is kept by the plane, an abandoned one surfaces via TakeFailed.
func (pl *FaultPlane) Send(msg Message) Delivery {
	if pl.hook == nil {
		return Delivery{Copies: 1, Slots: 1}
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	link := [2]int{msg.From, msg.To}
	k := pl.k[link]
	pl.k[link] = k + 1
	if msg.Tag != TagBoundaryDV || msg.To == msg.From {
		return Delivery{Copies: 1, Slots: 1}
	}
	if pl.hook.Down(msg.To) {
		// The send is charged (the sender cannot know); the rejoin protocol
		// re-ships the rows later.
		pl.st.DroppedDown++
		return Delivery{Slots: 1}
	}
	budget := max(pl.hook.ResendBudget(), 1)
	for attempt := 0; attempt < budget; attempt++ {
		if attempt > 0 {
			pl.st.Resends++
		}
		switch pl.hook.Fate(pl.xid, msg.From, msg.To, k, attempt) {
		case FateDeliver:
			return Delivery{Copies: 1, Slots: attempt + 1}
		case FateDuplicate:
			// Lost ack: the retransmission delivers a second copy.
			pl.st.Duplicated++
			return Delivery{Copies: 2, Slots: attempt + 2}
		case FateDelay:
			pl.st.Delayed++
			pl.delayed = append(pl.delayed, msg)
			return Delivery{Copies: 1, Held: true, Slots: attempt + 1}
		case FateDrop:
			pl.st.Dropped++
		case FateCorrupt:
			pl.st.Corrupted++
		}
	}
	pl.st.Failed++
	pl.failed = append(pl.failed, msg)
	return Delivery{Slots: budget}
}

// TakeFailed returns the messages abandoned since the last call and clears
// the list; the sender re-marks their rows for re-shipping.
func (pl *FaultPlane) TakeFailed() []Message {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	f := pl.failed
	pl.failed = nil
	return f
}

// InFlight returns the number of delayed messages not yet released.
func (pl *FaultPlane) InFlight() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return len(pl.delayed)
}

// Stats returns a snapshot of the fault counters.
func (pl *FaultPlane) Stats() FaultStats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.st
}

// Restore replaces the counters and discards held and abandoned messages
// (a checkpoint is taken at a quiescent step boundary).
func (pl *FaultPlane) Restore(st FaultStats) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.st, pl.delayed, pl.failed = st, nil, nil
}

// Close abandons the messages still held in flight: a shutdown must not
// silently drop undelivered deltas.
func (pl *FaultPlane) Close() {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.st.Failed += int64(len(pl.delayed))
	pl.failed, pl.delayed = append(pl.failed, pl.delayed...), nil
}

// Lossy is the fault plane above any Transport backend, so an engine run
// over TCP can be subjected to the same seeded drop/dup/delay/corrupt chaos
// as the in-process simulator — and both injected faults and the backend's
// real delivery failures surface through one TakeFailed channel, driving
// one recovery path (re-mark the rows for a full re-ship).
type Lossy struct {
	inner Transport
	plane *FaultPlane
}

// WithFaults wraps t with the seeded fault plane. A nil hook returns t
// unchanged.
func WithFaults(t Transport, hook FaultHook) Transport {
	if hook == nil {
		return t
	}
	return &Lossy{inner: t, plane: NewFaultPlane(hook)}
}

// Rank implements Transport.
func (l *Lossy) Rank() int { return l.inner.Rank() }

// Size implements Transport.
func (l *Lossy) Size() int { return l.inner.Size() }

// Exchange implements Transport: messages released from a previous delay
// go first (they are older), then this step's traffic as the plane
// resolves it. A bad destination passes through for the backend to reject.
func (l *Lossy) Exchange(out []Message) ([]Message, error) {
	_, send := l.plane.Begin()
	for _, msg := range out {
		msg.From = l.Rank()
		if validDest(msg, l.Size()) != nil {
			send = append(send, msg)
			continue
		}
		if d := l.plane.Send(msg); !d.Held {
			for c := 0; c < d.Copies; c++ {
				send = append(send, msg)
			}
		}
	}
	return l.inner.Exchange(send)
}

// Broadcast implements Transport: broadcasts ride the reliable plane.
func (l *Lossy) Broadcast(root int, msg Message) (*Message, error) {
	return l.inner.Broadcast(root, msg)
}

// Barrier implements Transport.
func (l *Lossy) Barrier() error { return l.inner.Barrier() }

// TakeFailed implements Transport: fate-abandoned messages plus whatever
// the backend itself could not deliver.
func (l *Lossy) TakeFailed() []Message {
	return append(l.plane.TakeFailed(), l.inner.TakeFailed()...)
}

// InFlight implements Transport: delay-held messages count as in flight.
func (l *Lossy) InFlight() int { return l.plane.InFlight() + l.inner.InFlight() }

// Stats implements Transport with the backend's counters (see FaultStats).
func (l *Lossy) Stats() Stats { return l.inner.Stats() }

// FaultStats returns the fault-plane counters.
func (l *Lossy) FaultStats() FaultStats { return l.plane.Stats() }

// Close implements Transport. Messages still held in flight are abandoned
// first; callers can collect them with TakeFailed after Close.
func (l *Lossy) Close() error {
	l.plane.Close()
	return l.inner.Close()
}
