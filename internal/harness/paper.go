package harness

import (
	"fmt"
	"time"

	"anytime/internal/core"
	"anytime/internal/gen"
)

// Paper runs the paper-scale configuration: the full n=50,000 / P=16
// testbed of the source paper's evaluation (not the laptop-scale shrink
// the other experiments default to), absorbing a sparse preferential-
// attachment vertex batch and recording the per-RC-step reconvergence
// trajectory — wall milliseconds, LogP-virtual milliseconds, and frontier
// density — the Fig. 4-shaped series at the original scale.
//
// The engine is oracle-seeded via core.NewConverged: the multi-step static
// convergence (hours of simulated RC work at this scale) is replaced by
// exact global IA sweeps, which produce the identical converged state the
// dynamic measurement starts from. Only the absorption cascade after the
// batch is the measured quantity.
//
// Paper is intentionally absent from All(): a single run allocates a
// ~50,000² distance matrix (~20 GB) and takes minutes of wall time. It is
// reachable via `aaexperiments -fig paper` (scale down with -n for a dry
// run) and the bench-paper Makefile target.
func Paper(cfg Config) (*Result, error) {
	// Paper-scale defaults: zero values mean the paper's testbed, not the
	// laptop shrink. An explicit -n/-p still overrides for dry runs.
	if cfg.N == 0 {
		cfg.N = 50000
	}
	if cfg.P == 0 {
		cfg.P = 16
	}
	cfg = cfg.withDefaults()
	g, err := cfg.baseGraph()
	if err != nil {
		return nil, err
	}
	build := time.Now()
	e, err := core.NewConverged(g, cfg.engineOptions(core.RoundRobinPS))
	if err != nil {
		return nil, err
	}
	warmWall := time.Since(build)
	warmVirt := e.Metrics().VirtualTime

	// The paper's sparse-growth regime: a 64-vertex batch on n=50,000 is
	// 0.128% of the graph — the case the frontier-masked kernels target.
	k := cfg.scaleBatch(64)
	batch, err := gen.PreferentialBatch(e.Graph(), k, 2, 1, gen.Weights{}, cfg.Seed+100)
	if err != nil {
		return nil, err
	}
	if err := e.QueueBatch(batch); err != nil {
		return nil, err
	}

	wall := Series{Name: "wall ms"}
	virt := Series{Name: "virtual ms"}
	dens := Series{Name: "frontier density"}
	absorbStart := time.Now()
	step := 0
	for !e.Converged() && e.Err() == nil {
		if step > 10*cfg.N {
			return nil, fmt.Errorf("harness: paper run did not converge in %d steps", step)
		}
		v0 := e.Metrics().VirtualTime
		t0 := time.Now()
		e.Step()
		x := float64(step)
		wall.X = append(wall.X, x)
		wall.Y = append(wall.Y, float64(time.Since(t0))/float64(time.Millisecond))
		virt.X = append(virt.X, x)
		virt.Y = append(virt.Y, float64(e.Metrics().VirtualTime-v0)/float64(time.Millisecond))
		d := 0.0
		if h := e.History(); len(h) > 0 {
			d = h[len(h)-1].BoundGap
		}
		dens.X = append(dens.X, x)
		dens.Y = append(dens.Y, d)
		step++
	}
	if err := e.Err(); err != nil {
		return nil, err
	}
	absorbWall := time.Since(absorbStart)
	absorbVirt := e.Metrics().VirtualTime - warmVirt

	var relaxOps, maskedOps int64
	for _, h := range e.History() {
		relaxOps += h.RelaxOps
		maskedOps += h.MaskedOps
	}
	maskedShare := 0.0
	if relaxOps > 0 {
		maskedShare = float64(maskedOps) / float64(relaxOps)
	}
	return &Result{
		ID:     "paper",
		Title:  fmt.Sprintf("Paper-scale absorption trajectory (n=%d, P=%d, batch=%d)", cfg.N, cfg.P, k),
		XLabel: "RC step",
		YLabel: "ms / density",
		Series: []Series{wall, virt, dens},
		Notes: []string{
			fmt.Sprintf("oracle-seeded warm start (core.NewConverged): %.1fs wall, %.1fs virtual — replaces the static convergence, identical converged state", warmWall.Seconds(), warmVirt.Seconds()),
			fmt.Sprintf("batch absorption: %d RC steps, %.1f ms wall, %.1f ms LogP-virtual", step, float64(absorbWall)/float64(time.Millisecond), float64(absorbVirt)/float64(time.Millisecond)),
			fmt.Sprintf("relax ops %d, masked share %.1f%% (frontier-masked kernels)", relaxOps, 100*maskedShare),
		},
	}, nil
}
