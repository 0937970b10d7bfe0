// Package cluster simulates the paper's distributed-memory testbed inside
// one process. Each of the P "processors" runs as a goroutine over its own
// private state; messages move between them through the paper's
// flood-avoiding personalized all-to-all schedule and a binomial tree
// broadcast; and every message and unit of work is charged to a LogP
// virtual clock so cluster-scale runtimes can be reported alongside real
// wall-clock measurements.
//
// The package owns only what is LogP: the clocks, the round schedule and
// its message-slot charges, and the traffic counters. Message vocabulary
// and the lossy-link fault protocol (fates, resends, delays, abandoned
// messages and their counters) belong to internal/transport, whose
// FaultPlane each exchange runs; the Machine charges the slots the plane
// reports.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"anytime/internal/logp"
	"anytime/internal/obs"
	"anytime/internal/transport"
)

// TagStats are per-message-kind counters.
type TagStats struct {
	Messages int64
	Bytes    int64
}

// Stats aggregates communication counters for reports and the analysis
// benches. ByTag breaks traffic down by message kind (boundary DVs,
// vertex-addition row broadcasts, migration, control). The embedded fault
// counters are the fault plane's (all zero on a perfect network).
type Stats struct {
	Messages   int64 // logical messages
	Chunks     int64 // wire messages after MaxMsgBytes splitting
	Bytes      int64
	Broadcasts int64
	Barriers   int64
	Steps      int64
	ByTag      [transport.NumTags]TagStats
	transport.FaultStats
}

// Config configures a Machine.
type Config struct {
	Model logp.Model
	// MaxMsgBytes is the paper's bounded message size m: larger payloads
	// are accounted as multiple wire messages. 0 = unbounded.
	MaxMsgBytes int
	// Serialized, when true (the paper's schedule), charges the all-to-all
	// exchange as if only one message traverses the network at a time
	// (O(P^2) message slots). When false, the P-1 disjoint-pair rounds are
	// charged in parallel per round.
	Serialized bool
	// Fault, when non-nil, makes Exchange's boundary-DV traffic lossy
	// through the transport fault plane; every attempt is charged to the
	// LogP clock. nil = the perfect network.
	Fault transport.FaultHook
	// Obs, when non-nil, receives fault-retry spans (deliveries that needed
	// retransmission, were delayed in flight, or exhausted the resend
	// budget). nil = no tracing.
	Obs *obs.Tracer
}

// Machine is the simulated cluster.
type Machine struct {
	cfg    Config
	clocks []*logp.Clock
	plane  *transport.FaultPlane
	stats  Stats
	mu     sync.Mutex
}

// New creates a machine with the given configuration.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxMsgBytes < 0 {
		return nil, fmt.Errorf("cluster: negative MaxMsgBytes")
	}
	m := &Machine{
		cfg:    cfg,
		clocks: make([]*logp.Clock, cfg.Model.P),
		plane:  transport.NewFaultPlane(cfg.Fault),
	}
	for i := range m.clocks {
		m.clocks[i] = &logp.Clock{}
	}
	return m, nil
}

// P returns the processor count.
func (m *Machine) P() int { return m.cfg.Model.P }

// Model returns the LogP parameters.
func (m *Machine) Model() logp.Model { return m.cfg.Model }

// Stats returns a snapshot of the counters.
func (m *Machine) Stats() Stats {
	m.mu.Lock()
	st := m.stats
	m.mu.Unlock()
	st.FaultStats = m.plane.Stats()
	return st
}

// VirtualTime returns the maximum processor clock: the simulated elapsed
// time of the computation so far.
func (m *Machine) VirtualTime() time.Duration {
	var max time.Duration
	for _, c := range m.clocks {
		if c.Now() > max {
			max = c.Now()
		}
	}
	return max
}

// ProcTime returns processor p's current virtual clock. Safe from p's own
// Parallel body (each p owns its clock) and between super-steps.
func (m *Machine) ProcTime(p int) time.Duration { return m.clocks[p].Now() }

// BusyTime returns processor p's accumulated busy virtual time: explicit
// Charge/ChargeDuration advances, excluding barrier and message-wait idle
// jumps. Per-step deltas of this quantity feed the load-imbalance gauge.
func (m *Machine) BusyTime(p int) time.Duration { return m.clocks[p].Busy() }

// Charge adds `ops` abstract work units to processor p's clock. Safe for
// concurrent use from Parallel bodies (each p owns its clock).
func (m *Machine) Charge(p int, ops int64) {
	m.clocks[p].Advance(m.cfg.Model.Work(ops))
}

// ChargeDuration adds an explicit virtual duration to processor p's clock.
func (m *Machine) ChargeDuration(p int, d time.Duration) {
	m.clocks[p].Advance(d)
}

// Barrier synchronizes all clocks to the maximum (bulk-synchronous step
// boundary).
func (m *Machine) Barrier() time.Duration {
	m.mu.Lock()
	m.stats.Barriers++
	m.mu.Unlock()
	return logp.Barrier(m.clocks)
}

// Parallel runs body(p) for every processor concurrently and waits for all
// of them (a compute super-step). Bodies own disjoint state; they may call
// Charge(p, ...) for their own p only.
func (m *Machine) Parallel(body func(p int)) {
	m.mu.Lock()
	m.stats.Steps++
	m.mu.Unlock()
	if m.P() == 1 {
		body(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(m.P())
	for p := 0; p < m.P(); p++ {
		go func(p int) { defer wg.Done(); body(p) }(p)
	}
	wg.Wait()
}

// chunks returns the wire-message count for a payload size under the
// bounded-message-size schedule.
func (m *Machine) chunks(bytes int) int64 {
	if m.cfg.MaxMsgBytes <= 0 || bytes <= m.cfg.MaxMsgBytes {
		return 1
	}
	return int64((bytes + m.cfg.MaxMsgBytes - 1) / m.cfg.MaxMsgBytes)
}

// msgCost is the endpoint-to-endpoint virtual cost of one logical message:
// per chunk, sender overhead + wire latency + receiver overhead, plus the
// per-byte serialization gap.
func (m *Machine) msgCost(bytes int) time.Duration {
	md := m.cfg.Model
	ch := m.chunks(bytes)
	return time.Duration(ch)*(md.O+md.L+md.O) + time.Duration(bytes)*md.G
}

// Exchange performs the personalized all-to-all of one recombination step:
// outbox[p] holds processor p's outgoing messages (To must be a valid
// processor, From is overwritten). It returns inbox[q], the messages
// delivered to each processor, in deterministic (round, sender) order, and
// advances the virtual clocks according to the configured schedule. A
// message addressed outside [0, P) aborts the exchange with an error and
// delivers nothing.
//
// The schedule runs P-1 rounds; in round r, processor p sends its messages
// addressed to (p+r) mod P. With Serialized accounting (the paper's
// "only one message traverses the network at any time"), message slots are
// charged one after another globally; otherwise each round is charged as P
// concurrent pairwise transfers.
//
// Every remote message goes through the fault plane, which reports how many
// copies to deliver and how many message slots its attempts took; each
// slot is charged one msgCost. Messages the plane delayed in the previous
// exchange are delivered first, after the free local ones.
func (m *Machine) Exchange(outbox [][]transport.Message) ([][]transport.Message, error) {
	P := m.P()
	// Validate and index outgoing by (from, to) before anything is sent:
	// an invalid destination must deliver nothing.
	byDest := make([][][]transport.Message, P)
	inbox := make([][]transport.Message, P)
	for p := 0; p < P; p++ {
		byDest[p] = make([][]transport.Message, P)
		for _, msg := range outbox[p] {
			msg.From = p
			if msg.To < 0 || msg.To >= P {
				return nil, fmt.Errorf("cluster: message from processor %d to invalid processor %d", p, msg.To)
			}
			if msg.To == p {
				// local delivery, no network cost
				inbox[p] = append(inbox[p], msg)
				continue
			}
			byDest[p][msg.To] = append(byDest[p][msg.To], msg)
		}
	}
	xid, released := m.plane.Begin()
	for _, msg := range released {
		inbox[msg.To] = append(inbox[msg.To], msg)
	}
	start := m.Barrier() // exchange begins when every processor arrives
	var serialClock time.Duration
	for r := 1; r < P; r++ {
		var roundMax time.Duration
		for p := 0; p < P; p++ {
			q := (p + r) % P
			var cost time.Duration
			for _, msg := range byDest[p][q] {
				d := m.plane.Send(msg)
				m.account(msg, d.Copies)
				for c := 0; c < d.Copies && !d.Held; c++ {
					inbox[q] = append(inbox[q], msg)
				}
				slots := time.Duration(d.Slots) * m.msgCost(msg.Bytes)
				m.recordRetry(xid, msg, d.Slots, slots)
				cost += slots
			}
			if m.cfg.Serialized {
				serialClock += cost
			} else if cost > roundMax {
				roundMax = cost
			}
		}
		if !m.cfg.Serialized {
			serialClock += roundMax
		}
	}
	for _, c := range m.clocks {
		c.AdvanceTo(start + serialClock)
	}
	return inbox, nil
}

// account records n delivered copies of msg in the counters.
func (m *Machine) account(msg transport.Message, n int) {
	if n == 0 {
		return
	}
	c := int64(n)
	m.mu.Lock()
	m.stats.Messages += c
	m.stats.Chunks += c * m.chunks(msg.Bytes)
	m.stats.Bytes += c * int64(msg.Bytes)
	m.stats.ByTag[msg.Tag].Messages += c
	m.stats.ByTag[msg.Tag].Bytes += c * int64(msg.Bytes)
	m.mu.Unlock()
}

// recordRetry emits a fault-retry span for a lossy-link delivery that took
// more than one message slot (or was abandoned). Called from Exchange's
// single accounting goroutine, so reading the sender's clock is race-free.
func (m *Machine) recordRetry(xid int64, msg transport.Message, slots int, cost time.Duration) {
	if m.cfg.Obs == nil || slots <= 1 {
		return
	}
	m.cfg.Obs.Record(obs.Span{
		Kind:    obs.KindFaultRetry,
		Proc:    int32(msg.From),
		Step:    int32(xid),
		Wall:    m.cfg.Obs.Now(),
		Virt:    m.clocks[msg.From].Now(),
		VirtDur: cost,
		Value:   int64(slots),
	})
}

// InFlight returns the number of delayed messages not yet delivered. The
// engine must not declare convergence while messages are in flight.
func (m *Machine) InFlight() int { return m.plane.InFlight() }

// TakeFailed returns the messages abandoned after the resend budget since
// the last call, and clears the list. The sender uses it to re-mark the
// affected rows for re-shipping.
func (m *Machine) TakeFailed() []transport.Message { return m.plane.TakeFailed() }

// Broadcast charges a binomial-tree broadcast of a payload of the given
// size from root to all other processors — ceil(log2 P) rounds of one
// message cost each — and returns the per-processor copies of the message.
// Broadcasts ride the reliable plane: every copy is delivered and counted.
// An out-of-range root is an error.
func (m *Machine) Broadcast(root int, msg transport.Message) ([][]transport.Message, error) {
	P := m.P()
	if root < 0 || root >= P {
		return nil, fmt.Errorf("cluster: broadcast from invalid processor %d", root)
	}
	msg.From = root
	rounds := 0
	for 1<<rounds < P {
		rounds++
	}
	start := m.Barrier()
	for _, c := range m.clocks {
		c.AdvanceTo(start + time.Duration(rounds)*m.msgCost(msg.Bytes))
	}
	out := make([][]transport.Message, P)
	for q := range out {
		if q != root {
			msg.To = q
			out[q] = []transport.Message{msg}
		}
	}
	m.account(msg, P-1)
	m.mu.Lock()
	m.stats.Broadcasts++
	m.mu.Unlock()
	return out, nil
}

// Restore sets every clock to the given virtual time and replaces the
// counters — used when resuming from a checkpoint. Any in-flight or
// abandoned messages are discarded (checkpoints are taken at quiescent
// step boundaries).
func (m *Machine) Restore(virtual time.Duration, st Stats) {
	for _, c := range m.clocks {
		c.AdvanceTo(virtual)
	}
	m.plane.Restore(st.FaultStats)
	m.mu.Lock()
	m.stats = st
	m.mu.Unlock()
}
