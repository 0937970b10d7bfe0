package rank

import (
	"time"
)

// Telemetry is one rank's anytime-quality snapshot, refreshed at the end
// of every RC step and read concurrently by the metrics scrape goroutines
// (through Runner.Telemetry, never the step-loop state directly). The
// quality gauges quantify the paper's anytime property: how far the
// current partial solution is from the exact fixpoint, per rank, live.
type Telemetry struct {
	// Rank is this process's rank.
	Rank int
	// Step is the number of completed RC steps.
	Step int64
	// Rows is the number of distance rows this rank owns; DirtyRows of
	// them still carry unshipped updates, ConvergedRows are quiescent.
	Rows, DirtyRows, ConvergedRows int
	// DirtyFraction is DirtyRows/Rows — the row-granular convergence gap.
	DirtyFraction float64
	// FrontierDensity is the set-bit density of the change frontier within
	// the dirty rows — the quantity the masked min-plus kernels cut over
	// on (~25% in PR 8's calibration).
	FrontierDensity float64
	// BoundGap is the fraction of all (source, target) entries still in
	// some change frontier: the proxy for how much of the matrix may still
	// improve — 0 at an exact fixpoint.
	BoundGap float64
	// StepBusy is the compute time (ship build + relax) of the last step;
	// StepWall its full wall time including the exchange wait; BusyTotal
	// the cumulative busy time. max/mean StepBusy across ranks is the
	// paper's Fig. 5 imbalance, computed by the cluster aggregator.
	StepBusy, StepWall, BusyTotal time.Duration
	// Degraded is true while the run sits at a degraded fixpoint (ranks
	// down); DegradedSteps counts steps taken in that mode and
	// OutageEpisodes the distinct entries into it.
	Degraded       bool
	DegradedSteps  int
	OutageEpisodes int
	// DownRanks is the size of the coordinator's current down set.
	DownRanks int
	// EventsApplied and Rejoins mirror the step-loop counters.
	EventsApplied, Rejoins int
}

// Telemetry returns the latest snapshot (safe for concurrent use).
func (r *Runner) Telemetry() Telemetry {
	r.tmu.Lock()
	defer r.tmu.Unlock()
	return r.telem
}

// updateTelemetry recomputes the snapshot at a step boundary. Runs on the
// step-loop goroutine; only the final assignment takes the lock, and the
// scan allocates nothing (the zero-cost contract of the rank hot path —
// see TestRankTelemetryZeroAlloc).
func (r *Runner) updateTelemetry(busy, wall time.Duration) {
	rows, dirty, bits := r.rs.Quality()
	cols := r.rs.Table().Cols()
	if r.degraded {
		r.degradedSteps++
	}
	r.busyTotal += busy

	t := Telemetry{
		Rank:           r.t.Rank(),
		Step:           int64(r.stats.Steps),
		Rows:           rows,
		DirtyRows:      dirty,
		ConvergedRows:  rows - dirty,
		StepBusy:       busy,
		StepWall:       wall,
		BusyTotal:      r.busyTotal,
		Degraded:       r.degraded,
		DegradedSteps:  r.degradedSteps,
		OutageEpisodes: r.outages,
		EventsApplied:  r.stats.EventsApplied,
		Rejoins:        r.stats.Rejoins,
	}
	if rows > 0 {
		t.DirtyFraction = float64(dirty) / float64(rows)
		if cols > 0 {
			t.BoundGap = float64(bits) / (float64(rows) * float64(cols))
			if dirty > 0 {
				t.FrontierDensity = float64(bits) / (float64(dirty) * float64(cols))
			}
		}
	}
	for _, d := range r.down {
		if d {
			t.DownRanks++
		}
	}
	r.tmu.Lock()
	r.telem = t
	r.tmu.Unlock()
}
