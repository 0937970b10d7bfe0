package main

import (
	"time"

	"anytime/internal/core"
	"anytime/internal/dv"
	"anytime/internal/graph"
	"anytime/internal/kernel"
	"anytime/internal/partition"
)

// kernelProbe runs the exported min-plus kernels on rows of the workload's
// own distance matrix for about d each: the dense one-pivot sweep, the
// 32-pivot tile, and the masked sweep at 2 % frontier density. Rates are
// relax operations per second; bytes per operation is computed from the
// slices each kernel reads and writes (4 B source + 4 B destination read,
// next hop and destination written only on improvement), not measured.
func kernelProbe(dist [][]graph.Dist, d time.Duration, out map[string]float64) {
	n := len(dist)
	if n < 64 {
		return
	}
	const tile = 32
	arena := make([]graph.Dist, 0, tile*n)
	offs := make([]int32, tile)
	owners := make([]int32, tile)
	for p := 0; p < tile; p++ {
		arena = append(arena, dist[p]...)
		offs[p], owners[p] = int32(p), int32(p)
	}
	dst := make([]graph.Dist, n)
	nh := make([]int32, n)
	mask := kernel.NewBitset(n)
	for t := 0; t < n; t += 50 {
		mask.Set(t)
	}
	rate := func(sweep func(u int) int64) float64 {
		var ops int64
		t0 := time.Now()
		for u := tile; time.Since(t0) < d; u++ {
			if u == n {
				u = tile
			}
			copy(dst, dist[u])
			ops += sweep(u)
		}
		return float64(ops) / time.Since(t0).Seconds() / 1e9
	}
	out["kernel.dense_gops_s"] = rate(func(u int) int64 {
		var ops int64
		for p := 0; p < tile; p++ {
			kernel.MinPlusHops(dst, nh, dist[p], dst[p], int32(p))
			ops += int64(n)
		}
		return ops
	})
	out["kernel.tile_gops_s"] = rate(func(u int) int64 {
		_, _, ops := kernel.MinPlusTile(dst, nh, arena, n, offs, owners)
		return ops
	})
	out["kernel.masked_gops_s"] = rate(func(u int) int64 {
		var ops int64
		for p := 0; p < tile; p++ {
			_, _, visited := kernel.MinPlusHopsMasked(dst, nh, dist[p], dst[p], int32(p), mask, nil, 0)
			ops += int64(visited)
		}
		return ops
	})
	out["kernel.bytes_per_op"] = 8
}

// extendColsProbe times dv.Matrix.ExtendCols on a table shaped like one
// processor's: n columns, n/p rows, k new columns per call. Calls that
// stay inside the stride are cheap and calls that relayout are not; the
// mean over one doubling covers both.
func extendColsProbe(n, p, k int, out map[string]float64) {
	m := dv.NewMatrix(n)
	for v := 0; v < n/p; v++ {
		m.AddRow(int32(v))
	}
	calls := 0
	t0 := time.Now()
	for m.Cols() < 2*n {
		m.ExtendCols(k)
		calls++
	}
	out["dv.extend_cols_s"] = time.Since(t0).Seconds() / float64(calls)
}

// repartitionProbe times what Repartition-S asks of the partition layer
// for one batch: affinity placement of the last k vertices and adaptive
// refinement of the engine's current assignment.
func repartitionProbe(e *core.Engine, k int, out map[string]float64) {
	g, part, opts := e.Graph(), e.Partition(), e.Options()
	first := g.NumVertices() - k
	if first < opts.P {
		return
	}
	t0 := time.Now()
	seed := partition.AffinityExtend(g, append([]int32(nil), part.Part[:first]...), opts.P, first)
	if _, err := (partition.Adaptive{Seed: opts.Seed}).Refine(g, seed, opts.P); err != nil {
		return
	}
	out["partition.repart_s"] = time.Since(t0).Seconds()
}
