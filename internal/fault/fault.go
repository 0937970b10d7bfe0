// Package fault is the deterministic chaos layer: a seeded Plan describes
// which processors crash at which recombination steps and how lossy each
// link is (drop, duplicate, delay, corrupt), and an Injector turns the plan
// into the transport.FaultHook the fault plane consults on every delivery
// attempt — under the simulated cluster and the rank transports alike.
//
// Determinism is the point. A fate is a pure hash of
// (seed, exchange, from, to, k, attempt), so the same plan yields the same
// faults on every run regardless of goroutine scheduling — chaos soaks are
// replayable and failures bisectable. The zero-valued Plan injects nothing:
// the engine behaves bit-identically to a run without the fault layer (only
// the recovery shards it enables are extra).
//
// Which messages are faulted (boundary DVs to another rank), how dropped
// and corrupted attempts are resent within the budget, and how abandoned
// messages reach the engine — which re-marks the affected rows for a full
// re-ship — is transport.FaultPlane's business, not this package's.
package fault

import (
	"fmt"

	"anytime/internal/transport"
)

// Crash schedules one processor failure.
type Crash struct {
	// Proc is the processor that fails.
	Proc int
	// Step is the RC step at whose start the processor crashes, losing all
	// state since its last recovery shard.
	Step int
	// DownFor is how many RC steps the processor stays down before the
	// rejoin protocol brings it back (default 1).
	DownFor int
}

// Plan is a complete, seeded fault schedule. The zero value injects no
// faults.
type Plan struct {
	// Seed drives the per-message fate hash. Plans with equal seeds and
	// rates produce identical fault schedules.
	Seed int64
	// DropRate is the per-attempt probability that a boundary-DV message
	// is lost in the network (triggering an ack-timeout resend).
	DropRate float64
	// DuplicateRate is the per-attempt probability that a message is
	// delivered twice (lost ack, spurious retransmission).
	DuplicateRate float64
	// DelayRate is the per-attempt probability that a message is held in
	// flight and delivered at the next exchange instead of this one.
	DelayRate float64
	// CorruptRate is the per-attempt probability that a message arrives
	// bit-flipped; the receiver's checksum detects it and nacks, so the
	// effect is a detected loss plus a resend.
	CorruptRate float64
	// ResendBudget bounds the delivery attempts per message (default 8).
	// When exhausted, the message is abandoned and the engine re-marks its
	// rows for re-shipping.
	ResendBudget int
	// Crashes lists the scheduled processor failures.
	Crashes []Crash
}

// Validate checks the plan against a processor count.
func (p Plan) Validate(procs int) error {
	rates := []struct {
		name string
		v    float64
	}{
		{"DropRate", p.DropRate}, {"DuplicateRate", p.DuplicateRate},
		{"DelayRate", p.DelayRate}, {"CorruptRate", p.CorruptRate},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s %v outside [0, 1]", r.name, r.v)
		}
	}
	if p.DropRate+p.DuplicateRate+p.DelayRate+p.CorruptRate > 1 {
		return fmt.Errorf("fault: fault rates sum to more than 1")
	}
	if p.ResendBudget < 0 {
		return fmt.Errorf("fault: negative ResendBudget")
	}
	for _, c := range p.Crashes {
		if c.Proc < 0 || c.Proc >= procs {
			return fmt.Errorf("fault: crash of invalid processor %d (P=%d)", c.Proc, procs)
		}
		if c.Step < 0 {
			return fmt.Errorf("fault: crash at negative step %d", c.Step)
		}
		if c.DownFor < 0 {
			return fmt.Errorf("fault: negative DownFor %d", c.DownFor)
		}
	}
	return nil
}

// Zero reports whether the plan injects no faults at all.
func (p Plan) Zero() bool {
	return p.DropRate == 0 && p.DuplicateRate == 0 && p.DelayRate == 0 &&
		p.CorruptRate == 0 && len(p.Crashes) == 0
}

// Injector implements transport.FaultHook over a Plan, plus the engine-side
// crash bookkeeping (which processors are currently down). It is consulted
// only from the engine's step goroutine; it is not safe for concurrent
// mutation.
type Injector struct {
	plan Plan
	down []bool
}

// NewInjector validates the plan and builds its injector for a P-processor
// machine.
func NewInjector(plan Plan, procs int) (*Injector, error) {
	if err := plan.Validate(procs); err != nil {
		return nil, err
	}
	if plan.ResendBudget == 0 {
		plan.ResendBudget = 8
	}
	return &Injector{plan: plan, down: make([]bool, procs)}, nil
}

// Plan returns the validated plan (with defaults applied).
func (in *Injector) Plan() Plan { return in.plan }

// Fate implements transport.FaultHook: the deterministic per-attempt fate
// of one message.
func (in *Injector) Fate(xid int64, from, to, k, attempt int) transport.Fate {
	p := in.plan
	total := p.DropRate + p.DuplicateRate + p.DelayRate + p.CorruptRate
	if total == 0 {
		return transport.FateDeliver
	}
	h := uint64(p.Seed)
	for _, v := range [...]uint64{uint64(xid), uint64(from), uint64(to), uint64(k), uint64(attempt)} {
		h = splitmix64(h ^ v)
	}
	u := float64(h>>11) / (1 << 53)
	switch {
	case u < p.DropRate:
		return transport.FateDrop
	case u < p.DropRate+p.CorruptRate:
		return transport.FateCorrupt
	case u < p.DropRate+p.CorruptRate+p.DuplicateRate:
		return transport.FateDuplicate
	case u < total:
		return transport.FateDelay
	default:
		return transport.FateDeliver
	}
}

// Down implements transport.FaultHook.
func (in *Injector) Down(p int) bool { return in.down[p] }

// ResendBudget implements transport.FaultHook.
func (in *Injector) ResendBudget() int { return in.plan.ResendBudget }

// SetDown records a processor crashing (true) or rejoining (false); called
// by the engine's crash/rejoin protocol.
func (in *Injector) SetDown(p int, down bool) { in.down[p] = down }

// AnyDown reports whether any processor is currently crashed.
func (in *Injector) AnyDown() bool {
	for _, d := range in.down {
		if d {
			return true
		}
	}
	return false
}

// CrashesAt returns the crashes scheduled for the given RC step.
func (in *Injector) CrashesAt(step int) []Crash {
	var out []Crash
	for _, c := range in.plan.Crashes {
		if c.Step == step {
			out = append(out, c)
		}
	}
	return out
}

// splitmix64 is the SplitMix64 finalizer: a high-quality 64-bit mixing
// function (Steele et al.), used to derive independent per-message fate
// decisions from the plan seed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
