package transport

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Hub is the single-process delivery fabric of the inproc Transport
// backend: per-rank mailboxes guarded by one mutex.
type Hub struct {
	mu    sync.Mutex
	boxes [][]hubMsg
	seq   []uint32 // per-sender sequence within the current step
	ctr   counters

	// Liveness plane (mirrors the TCP backend's): a rank aborted via
	// Inproc.Abort is down — sticky until RejoinInproc + Activate.
	live    []bool
	pending []bool
	events  [][]LivenessEvent // per-rank observation queues
	goCh    []chan []byte     // per-rank rejoin-go channels

	steps []int64 // per-rank step table (the inproc StepReporter plane)
}

type hubMsg struct {
	msg Message
	seq uint32
}

// NewHub creates a hub for n ranks.
func NewHub(n int) *Hub {
	h := &Hub{
		boxes:   make([][]hubMsg, n),
		seq:     make([]uint32, n),
		live:    make([]bool, n),
		pending: make([]bool, n),
		events:  make([][]LivenessEvent, n),
		goCh:    make([]chan []byte, n),
		steps:   make([]int64, n),
	}
	for i := range h.live {
		h.live[i] = true
	}
	return h
}

// Size returns the number of ranks.
func (h *Hub) Size() int { return len(h.boxes) }

// Deliver appends msg to its destination mailbox, stamped with its
// position in the sender's traffic for this step.
func (h *Hub) Deliver(msg Message) {
	h.mu.Lock()
	s := h.seq[msg.From]
	h.seq[msg.From]++
	h.boxes[msg.To] = append(h.boxes[msg.To], hubMsg{msg: msg, seq: s})
	h.ctr.msgsSent.Add(1)
	h.ctr.msgsRecv.Add(1)
	h.ctr.bytesSent.Add(int64(msg.Bytes))
	h.ctr.bytesRecv.Add(int64(msg.Bytes))
	h.mu.Unlock()
}

// collectSorted removes rank's pending messages ordered by (sender rank,
// send order) — the deterministic inbox order of the Transport contract,
// independent of the interleaving of concurrent senders.
func (h *Hub) collectSorted(rank int) []Message {
	h.mu.Lock()
	box := h.boxes[rank]
	h.boxes[rank] = nil
	h.mu.Unlock()
	sort.SliceStable(box, func(i, j int) bool {
		if box[i].msg.From != box[j].msg.From {
			return box[i].msg.From < box[j].msg.From
		}
		return box[i].seq < box[j].seq
	})
	out := make([]Message, len(box))
	for i, m := range box {
		out[i] = m.msg
	}
	return out
}

// Stats returns a snapshot of the hub counters.
func (h *Hub) Stats() Stats { return h.ctr.snapshot() }

// groupBarrier is a reusable cyclic barrier for n in-process ranks.
type groupBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   uint64
}

func newGroupBarrier(n int) *groupBarrier {
	b := &groupBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *groupBarrier) await() {
	b.mu.Lock()
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	gen := b.gen
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// leave removes one member from the barrier (a crashed rank). If every
// remaining member is already waiting, the generation releases — the
// survivors' collective completes without the dead rank.
func (b *groupBarrier) leave() {
	b.mu.Lock()
	b.n--
	if b.count == b.n && b.n > 0 {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
	}
	b.mu.Unlock()
}

// join adds one member back (an activated rejoiner).
func (b *groupBarrier) join() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

// Inproc is the in-process Transport backend: n endpoints over one shared
// Hub, synchronized by a group barrier. It carries payloads by reference
// (no serialization), so an engine run over it is bit-identical to the
// pre-transport in-process engine. NewInprocGroup wires a full group; the
// endpoints are used from one goroutine each.
type Inproc struct {
	rank    int
	hub     *Hub
	barrier *groupBarrier
	closed  bool
	failed  []Message // messages addressed to down ranks
}

// NewInprocGroup creates n connected in-process endpoints.
func NewInprocGroup(n int) []*Inproc {
	hub := NewHub(n)
	bar := newGroupBarrier(n)
	group := make([]*Inproc, n)
	for i := range group {
		group[i] = &Inproc{rank: i, hub: hub, barrier: bar}
	}
	return group
}

// Rank implements Transport.
func (t *Inproc) Rank() int { return t.rank }

// Size implements Transport.
func (t *Inproc) Size() int { return t.hub.Size() }

// MarkStep implements StepReporter: in-process, the shared hub table *is*
// the gossip (peers see the step immediately instead of after a heartbeat
// interval — strictly fresher than TCP, same observational contract).
func (t *Inproc) MarkStep(step int64) {
	t.hub.mu.Lock()
	t.hub.steps[t.rank] = step
	t.hub.mu.Unlock()
}

// PeerStep implements StepReporter.
func (t *Inproc) PeerStep(q int) int64 {
	if q < 0 || q >= t.hub.Size() {
		return 0
	}
	t.hub.mu.Lock()
	defer t.hub.mu.Unlock()
	return t.hub.steps[q]
}

// Exchange implements Transport: deposit, barrier (all traffic in), sort
// and collect, barrier (all collected before the next step's deposits).
func (t *Inproc) Exchange(out []Message) ([]Message, error) {
	if t.closed {
		return nil, fmt.Errorf("transport: exchange on closed inproc endpoint %d", t.rank)
	}
	for i := range out {
		out[i].From = t.rank
		if err := validDest(out[i], t.Size()); err != nil {
			// The deposit barrier still must be honored or the group wedges;
			// peers see this rank contribute nothing.
			t.barrier.await()
			t.barrier.await()
			return nil, err
		}
	}
	for _, msg := range out {
		t.hub.mu.Lock()
		down := !t.hub.live[msg.To]
		t.hub.mu.Unlock()
		if down {
			t.hub.ctr.sendFailures.Add(1)
			t.failed = append(t.failed, msg)
			continue
		}
		t.hub.Deliver(msg)
	}
	if t.rank == 0 {
		t.hub.ctr.exchanges.Add(1)
	}
	t.barrier.await()
	in := t.hub.collectSorted(t.rank)
	t.barrier.await()
	return in, nil
}

// Broadcast implements Transport over Exchange.
func (t *Inproc) Broadcast(root int, msg Message) (*Message, error) {
	if t.rank == root {
		t.hub.ctr.broadcasts.Add(1)
	}
	return broadcastVia(t, root, msg)
}

// Barrier implements Transport.
func (t *Inproc) Barrier() error {
	if t.closed {
		return fmt.Errorf("transport: barrier on closed inproc endpoint %d", t.rank)
	}
	if t.rank == 0 {
		t.hub.ctr.barriers.Add(1)
	}
	t.barrier.await()
	return nil
}

// TakeFailed implements Transport: the hub never loses a message to a live
// rank, but messages addressed to a down rank surface here (the same
// channel real delivery failures use on the TCP backend).
func (t *Inproc) TakeFailed() []Message {
	f := t.failed
	t.failed = nil
	return f
}

// InFlight implements Transport.
func (t *Inproc) InFlight() int { return 0 }

// Stats implements Transport.
func (t *Inproc) Stats() Stats { return t.hub.Stats() }

// Close implements Transport. A closed endpoint no longer participates in
// collectives; closing is for teardown after the group is done.
func (t *Inproc) Close() error {
	t.closed = true
	return nil
}

// Abort simulates this rank crashing: it leaves the barrier group (so
// survivors' collectives complete without it), marks itself down on the
// hub, discards its stale inbox, and notifies every live peer. The
// endpoint is unusable afterwards; RejoinInproc creates its replacement.
// Call it between steps (the in-process analogue of SIGKILL is
// cooperative — a goroutine cannot be killed mid-collective).
func (t *Inproc) Abort() {
	h := t.hub
	h.mu.Lock()
	if !h.live[t.rank] {
		h.mu.Unlock()
		return
	}
	h.live[t.rank] = false
	h.boxes[t.rank] = nil
	for q := range h.live {
		if q != t.rank && h.live[q] {
			h.events[q] = append(h.events[q], LivenessEvent{Rank: t.rank, Kind: LiveDown})
		}
	}
	h.mu.Unlock()
	t.barrier.leave()
	t.closed = true
}

// RejoinInproc creates the replacement endpoint for a crashed rank, in the
// pending state: it carries no traffic and is outside the barrier group
// until every live rank activates it at an agreed step boundary, after
// which AwaitRejoinGo returns the coordinator's go payload and the rank
// re-enters the step loop. peer is any live endpoint of the group.
func RejoinInproc(peer *Inproc, rank int) *Inproc {
	h := peer.hub
	h.mu.Lock()
	h.pending[rank] = true
	h.boxes[rank] = nil
	h.goCh[rank] = make(chan []byte, 1)
	h.mu.Unlock()
	return &Inproc{rank: rank, hub: h, barrier: peer.barrier}
}

// TakeLiveness implements Liveness.
func (t *Inproc) TakeLiveness() []LivenessEvent {
	h := t.hub
	h.mu.Lock()
	evs := h.events[t.rank]
	h.events[t.rank] = nil
	h.mu.Unlock()
	return evs
}

// PeerDown implements Liveness (a pending rejoiner is still down — it
// carries no traffic until activated).
func (t *Inproc) PeerDown(q int) bool {
	if q == t.rank || q < 0 || q >= t.hub.Size() {
		return false
	}
	h := t.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.live[q]
}

// PendingRejoin implements Liveness.
func (t *Inproc) PendingRejoin(q int) bool {
	if q < 0 || q >= t.hub.Size() {
		return false
	}
	h := t.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.pending[q]
}

// Activate implements Liveness: the first caller flips the pending rank
// live and rejoins it to the barrier group; every live rank observes the
// transition in its own event queue. Idempotent across callers.
func (t *Inproc) Activate(q int) {
	if q < 0 || q >= t.hub.Size() {
		return
	}
	h := t.hub
	h.mu.Lock()
	first := h.pending[q]
	if first {
		h.pending[q] = false
		h.live[q] = true
		for p := range h.live {
			if p != q && h.live[p] {
				h.events[p] = append(h.events[p], LivenessEvent{Rank: q, Kind: LiveRejoin})
			}
		}
	}
	h.mu.Unlock()
	if first {
		t.barrier.join()
	}
}

// HeartbeatAge implements Liveness: in-process peers are always fresh.
func (t *Inproc) HeartbeatAge(int) time.Duration { return 0 }

// SendRejoinGo implements Liveness.
func (t *Inproc) SendRejoinGo(q int, payload []byte) error {
	if q < 0 || q >= t.hub.Size() {
		return fmt.Errorf("transport: rejoin-go to invalid rank %d", q)
	}
	h := t.hub
	h.mu.Lock()
	ch := h.goCh[q]
	h.mu.Unlock()
	if ch == nil {
		return fmt.Errorf("transport: rank %d has no rejoin endpoint", q)
	}
	select {
	case ch <- payload:
	default:
	}
	return nil
}

// AwaitRejoinGo implements RejoinWaiter for an endpoint created by
// RejoinInproc.
func (t *Inproc) AwaitRejoinGo(timeout time.Duration) ([]byte, error) {
	h := t.hub
	h.mu.Lock()
	ch := h.goCh[t.rank]
	h.mu.Unlock()
	if ch == nil {
		return nil, fmt.Errorf("transport: endpoint was not created with RejoinInproc")
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	select {
	case payload := <-ch:
		return payload, nil
	case <-time.After(timeout):
		return nil, fmt.Errorf("transport: rank %d not released into the group within %v", t.rank, timeout)
	}
}
