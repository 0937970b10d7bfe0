package core

import (
	"sync"

	"anytime/internal/centrality"
	"anytime/internal/graph"
)

// Snapshot is the engine's current (anytime) view of the centrality
// computation. Before convergence the distances are upper bounds, so
// Closeness entries are lower bounds that improve monotonically with every
// RC step; after convergence they are exact.
type Snapshot struct {
	// Step is the RC step count at capture time.
	Step int
	// Converged reports whether the snapshot is exact.
	Converged bool
	// Closeness[v] = 1 / Σ_t d(v,t) over reachable t ≠ v (the paper's
	// definition); 0 for vertices with no known finite distance and for
	// deleted vertices.
	Closeness []float64
	// Harmonic[v] = Σ_t 1/d(v,t): the harmonic variant, whose estimates
	// are monotonically non-decreasing across RC steps.
	Harmonic []float64
	// Reachable[v] is the number of vertices with a known finite distance
	// from v (excluding v).
	Reachable []int
	// Eccentricity[v] is the largest known finite distance from v
	// (InfDist for isolated/deleted vertices). Before convergence this is
	// a lower bound on the true eccentricity restricted to currently
	// reachable targets.
	Eccentricity []graph.Dist
	// Degraded reports that a processor crash restored state from an older
	// recovery shard and the engine has not reconverged since: estimates
	// for the affected rows may have regressed relative to earlier
	// snapshots (the anytime monotonicity guarantee is suspended until the
	// flag clears). Always false without fault injection.
	Degraded bool
	// DownProcs lists the processors crashed at capture time (nil when all
	// are up). Their rows serve the values recovered from their shards.
	DownProcs []int
}

// TopK returns the IDs of the k highest-closeness vertices in descending
// order (ties broken by lower ID). k <= 0 yields an empty result and
// k > n is clamped. Before convergence the ranking reflects the current
// anytime lower bounds.
func (s Snapshot) TopK(k int) []int { return centrality.TopK(s.Closeness, k) }

// Radius returns the minimum finite eccentricity (InfDist if none).
func (s Snapshot) Radius() graph.Dist {
	r := graph.InfDist
	for _, e := range s.Eccentricity {
		if e != graph.InfDist && e < r {
			r = e
		}
	}
	return r
}

// Diameter returns the maximum finite eccentricity (InfDist if none). At
// convergence on a connected graph this is the exact graph diameter.
func (s Snapshot) Diameter() graph.Dist {
	d := graph.Dist(-1)
	for _, e := range s.Eccentricity {
		if e != graph.InfDist && e > d {
			d = e
		}
	}
	if d < 0 {
		return graph.InfDist
	}
	return d
}

// Snapshot gathers the current closeness estimates from all processors
// (the anytime interrupt point). Each DV row caches its aggregates and
// rescans only the columns written since the previous Snapshot (see
// dv.Row.Aggregates), so an interrupt costs what changed rather than n²;
// each processor's rows aggregate on a goroutine of their own.
// Because it updates those row caches, Snapshot must not run concurrently
// with itself or with Step.
func (e *Engine) Snapshot() Snapshot {
	n := e.g.NumVertices()
	s := Snapshot{
		Step:         e.step,
		Converged:    e.Converged(),
		Closeness:    make([]float64, n),
		Harmonic:     make([]float64, n),
		Reachable:    make([]int, n),
		Eccentricity: make([]graph.Dist, n),
		Degraded:     e.degraded,
		DownProcs:    e.DownProcs(),
	}
	for i := range s.Eccentricity {
		s.Eccentricity[i] = graph.InfDist
	}
	gather := func(p *Proc) {
		var cells int64
		for _, r := range p.table.Rows() {
			a, read := r.Aggregates()
			cells += int64(read)
			v := r.Owner
			if a.Sum > 0 {
				s.Closeness[v] = 1 / float64(a.Sum)
			}
			s.Harmonic[v] = a.Harm
			s.Reachable[v] = int(a.Reach)
			if a.Reach > 0 {
				s.Eccentricity[v] = a.Ecc
			}
		}
		e.snapshotCells.Add(cells)
	}
	var wg sync.WaitGroup
	for _, p := range e.procs {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			gather(p)
		}(p)
	}
	wg.Wait()
	return s
}

// Distances gathers the full distance matrix from all processors: row v is
// vertex v's DV (nil for deleted vertices). Intended for verification and
// small-scale inspection; the matrix is Θ(n²).
func (e *Engine) Distances() [][]graph.Dist {
	out := make([][]graph.Dist, e.g.NumVertices())
	for _, p := range e.procs {
		for _, r := range p.table.Rows() {
			out[r.Owner] = append([]graph.Dist(nil), r.D...)
		}
	}
	return out
}

// Alive reports whether vertex v is currently part of the analysis (false
// after dynamic deletion).
func (e *Engine) Alive(v int32) bool {
	return int(v) < len(e.alive) && e.alive[v]
}
