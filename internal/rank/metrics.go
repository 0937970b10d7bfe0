package rank

import (
	"strconv"

	"anytime/internal/obs"
)

// RegisterMetrics exposes one rank's liveness plane on an obs Registry in
// Prometheus text form, under the aa_rank_* namespace. Scrapes run on the
// metrics server's goroutines concurrently with the step loop, so every
// read goes through thread-safe sources only: the transport's liveness
// and step views (their own locks) and the runner's atomic rejoin counter
// — never the runner's step-loop state.
func RegisterMetrics(reg *obs.Registry, r *Runner) {
	self := r.t.Rank()
	for q := 0; q < r.t.Size(); q++ {
		labels := obs.Labels("rank", strconv.Itoa(self), "peer", strconv.Itoa(q))
		reg.GaugeFunc("aa_rank_up", "1 while the peer's link is active, 0 once failure detection holds it down or pending.",
			labels, func() float64 {
				if r.t.PeerDown(q) {
					return 0
				}
				return 1
			})
		if q == self {
			continue
		}
		reg.GaugeFunc("aa_rank_heartbeat_age_seconds", "Seconds since the peer was last heard from (0 when unknown or in-process).",
			labels, func() float64 { return r.t.HeartbeatAge(q).Seconds() })
	}
	reg.CounterFunc("aa_rank_rejoins_total", "Peer rejoins integrated by this rank (a rejoining rank counts its own re-entry).",
		obs.Labels("rank", strconv.Itoa(self)), func() float64 {
			return float64(r.rejoinsN.Load())
		})

	// Step-ID gossip: where this rank believes each peer is in RC (the
	// transport's step-ID plane — heartbeat piggyback over TCP).
	for q := 0; q < r.t.Size(); q++ {
		reg.GaugeFunc("aa_rank_peer_step", "RC step last heard from the peer (own step for peer == rank).",
			obs.Labels("rank", strconv.Itoa(self), "peer", strconv.Itoa(q)), func() float64 {
				return float64(r.t.PeerStep(q))
			})
	}

	// Anytime-quality telemetry: every read goes through the runner's
	// mutex-guarded snapshot (refreshed once per RC step), never the step
	// loop's own state.
	labels := obs.Labels("rank", strconv.Itoa(self))
	gauge := func(name, help string, get func(Telemetry) float64) {
		reg.GaugeFunc(name, help, labels, func() float64 { return get(r.Telemetry()) })
	}
	counter := func(name, help string, get func(Telemetry) float64) {
		reg.CounterFunc(name, help, labels, func() float64 { return get(r.Telemetry()) })
	}
	gauge("aa_rank_step", "Completed RC steps.", func(t Telemetry) float64 { return float64(t.Step) })
	gauge("aa_rank_step_busy_seconds", "Compute (ship build + relax) seconds of the last RC step; max/mean across ranks is the paper's Fig. 5 imbalance.",
		func(t Telemetry) float64 { return t.StepBusy.Seconds() })
	gauge("aa_rank_step_wall_seconds", "Full wall seconds of the last RC step including the exchange wait.",
		func(t Telemetry) float64 { return t.StepWall.Seconds() })
	counter("aa_rank_busy_seconds_total", "Cumulative compute seconds across all RC steps.",
		func(t Telemetry) float64 { return t.BusyTotal.Seconds() })
	gauge("aa_rank_rows", "Distance rows owned by this rank.", func(t Telemetry) float64 { return float64(t.Rows) })
	gauge("aa_rank_dirty_rows", "Rows still carrying unshipped updates.", func(t Telemetry) float64 { return float64(t.DirtyRows) })
	gauge("aa_rank_converged_rows", "Rows with no pending updates.", func(t Telemetry) float64 { return float64(t.ConvergedRows) })
	gauge("aa_rank_dirty_fraction", "DirtyRows/Rows: the row-granular convergence gap of the anytime solution.",
		func(t Telemetry) float64 { return t.DirtyFraction })
	gauge("aa_rank_frontier_density", "Change-frontier bit density within dirty rows (the masked-kernel cutover quantity).",
		func(t Telemetry) float64 { return t.FrontierDensity })
	gauge("aa_rank_bound_gap", "Fraction of all matrix entries still inside a change frontier — 0 at an exact fixpoint.",
		func(t Telemetry) float64 { return t.BoundGap })
	gauge("aa_rank_degraded", "1 while the run sits at a degraded fixpoint (ranks down).",
		func(t Telemetry) float64 {
			if t.Degraded {
				return 1
			}
			return 0
		})
	counter("aa_rank_degraded_steps_total", "RC steps taken in degraded mode.",
		func(t Telemetry) float64 { return float64(t.DegradedSteps) })
	counter("aa_rank_outage_episodes_total", "Distinct entries into degraded mode.",
		func(t Telemetry) float64 { return float64(t.OutageEpisodes) })
	counter("aa_rank_events_applied_total", "Dynamic events applied at step boundaries.",
		func(t Telemetry) float64 { return float64(t.EventsApplied) })
	gauge("aa_rank_down_ranks", "Size of the coordinator's current down set.",
		func(t Telemetry) float64 { return float64(t.DownRanks) })
}
