package sssp

import (
	"runtime"
	"sync"
	"sync/atomic"

	"anytime/internal/graph"
)

// MultiSource runs Dijkstra from every source in sources concurrently
// with `workers` goroutines (0 = GOMAXPROCS), writing into the
// caller-provided rows. This is the paper's multithreaded IA kernel: each
// processor owns n/P sources and fans them across its cores, for an
// O(((n/P)·n log n)/t) phase.
//
// rows[i] must be a pre-initialized (InfDist-filled, possibly seeded)
// distance slice for sources[i]; mask carries the local-sub-graph
// restriction described at DijkstraInto.
// It returns the total operation count across all sources (for LogP
// accounting; the caller divides by the worker count to model the
// parallel-section time).
func MultiSource(g *graph.Graph, sources []int32, rows [][]graph.Dist, mask []bool, workers int) int64 {
	checkRows(sources, rows)
	return multiSourceRun(len(sources), workers, func() func(i int) int64 {
		buf := &heapBuf{}
		return func(i int) int64 {
			return DijkstraInto(g, sources[i], rows[i], mask, buf)
		}
	})
}

// MultiSourceBFS is MultiSource for unit-weight graphs, run as a
// bit-parallel BFS: sources go in batches of 64, and one pass over the
// adjacency of each frontier vertex serves every source of its batch that
// reached the vertex at that level. Batches, not sources, fan out over the
// workers. The caller is responsible for ensuring all edge weights equal 1
// (see graph.Stats).
//
// rows[i] must be fresh — InfDist except rows[i][sources[i]] = 0 — since
// each distance is written once, when its source first reaches the vertex.
// The mask contract is DijkstraInto's, and distances and the returned op
// count equal a FIFO BFS per source (pops plus edge scans).
func MultiSourceBFS(g *graph.Graph, sources []int32, rows [][]graph.Dist, mask []bool, workers int) int64 {
	checkRows(sources, rows)
	batches := (len(sources) + batchWidth - 1) / batchWidth
	return multiSourceRun(batches, workers, func() func(i int) int64 {
		b := &bitBFS{}
		return func(i int) int64 {
			lo, hi := i*batchWidth, min((i+1)*batchWidth, len(sources))
			return b.run(g, sources[lo:hi], rows[lo:hi], mask)
		}
	})
}

func checkRows(sources []int32, rows [][]graph.Dist) {
	if len(sources) != len(rows) {
		panic("sssp: sources/rows length mismatch")
	}
}

// multiSourceRun fans the job indices [0, n) across `workers` goroutines.
// newWorker is called once per goroutine to build its runner around
// private scratch buffers.
func multiSourceRun(n, workers int, newWorker func() func(i int) int64) int64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		run := newWorker()
		var ops int64
		for i := 0; i < n; i++ {
			ops += run(i)
		}
		return ops
	}
	// next is the shared job cursor: workers claim indices with one
	// atomic fetch-add each — no lock, no contention beyond the cache line.
	var next int64
	var totalOps int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			run := newWorker()
			var ops int64
			for {
				i := int(atomic.AddInt64(&next, 1) - 1)
				if i >= n {
					atomic.AddInt64(&totalOps, ops)
					return
				}
				ops += run(i)
			}
		}()
	}
	wg.Wait()
	return totalOps
}
