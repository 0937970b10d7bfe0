// Package logp implements the LogP distributed-memory machine model
// (Culler et al., PPoPP 1993) used by the paper for its runtime analysis,
// plus per-processor virtual clocks. The simulated cluster charges every
// message and every unit of local computation against these parameters, so
// cluster-scale time *shapes* are reproduced even though the runtime
// executes in a single process.
package logp

import (
	"fmt"
	"time"
)

// Model holds the LogP parameters. All times are virtual nanoseconds.
type Model struct {
	// L is the latency: upper bound on the delay of a small message
	// between two processors.
	L time.Duration
	// O is the overhead: time a processor is busy sending or receiving one
	// message (charged on both ends).
	O time.Duration
	// G is the gap per byte: reciprocal of per-processor bandwidth. The
	// classic model defines g per message of fixed size w; a per-byte gap
	// generalizes it to the variable-size boundary-DV messages.
	G time.Duration
	// P is the number of processors.
	P int
	// Compute scales virtual time charged per abstract work unit (one
	// distance relaxation, one heap operation, ...).
	Compute time.Duration
}

// GigabitCluster returns parameters resembling the paper's testbed: 1 Gb/s
// Ethernet (≈1 ns/byte + protocol overhead), tens-of-microsecond latency,
// and ~1 ns per scalar operation on a ~1.8 GHz core.
func GigabitCluster(p int) Model {
	return Model{
		L:       50 * time.Microsecond,
		O:       5 * time.Microsecond,
		G:       10 * time.Nanosecond, // ~100 MB/s effective
		P:       p,
		Compute: 1 * time.Nanosecond,
	}
}

// Validate checks the parameters.
func (m Model) Validate() error {
	if m.P < 1 {
		return fmt.Errorf("logp: P=%d < 1", m.P)
	}
	if m.L < 0 || m.O < 0 || m.G < 0 || m.Compute < 0 {
		return fmt.Errorf("logp: negative parameter in %+v", m)
	}
	return nil
}

// Work converts an abstract operation count into virtual compute time.
func (m Model) Work(ops int64) time.Duration {
	return time.Duration(ops) * m.Compute
}

// Clock is one processor's virtual clock. Clocks advance independently
// during a step; barriers synchronize them to the maximum.
//
// The clock distinguishes *busy* time (explicit charges via Advance: compute,
// send/receive overhead) from *idle* time (AdvanceTo jumps: waiting at a
// barrier or for a message in flight). The busy total is what the paper's
// load-imbalance metric (Fig. 5) is computed over — a processor stalled at a
// barrier has a late clock but no extra busy time.
type Clock struct {
	now  time.Duration
	busy time.Duration
}

// Advance adds d to the clock, counting it as busy time.
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.now += d
		c.busy += d
	}
}

// AdvanceTo moves the clock forward to t if t is later. The jump is idle
// (synchronization) time and does not count as busy.
func (c *Clock) AdvanceTo(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// Busy returns the accumulated busy (explicitly charged) virtual time.
func (c *Clock) Busy() time.Duration { return c.busy }

// Barrier synchronizes a set of clocks to their maximum and returns it.
// This models the bulk-synchronous structure of the recombination steps.
func Barrier(clocks []*Clock) time.Duration {
	var max time.Duration
	for _, c := range clocks {
		if c.now > max {
			max = c.now
		}
	}
	for _, c := range clocks {
		c.now = max
	}
	return max
}
