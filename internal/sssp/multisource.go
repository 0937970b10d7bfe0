package sssp

import (
	"runtime"
	"sync"
	"sync/atomic"

	"anytime/internal/graph"
)

// MultiSourceHops runs Dijkstra from every source in sources concurrently
// with `workers` goroutines (0 = GOMAXPROCS), writing results through the
// caller-provided sink. This is the paper's multithreaded IA kernel: each
// processor owns n/P sources and fans them across its cores, for an
// O(((n/P)·n log n)/t) phase.
//
// rows[i] must be a pre-initialized (InfDist-filled, possibly seeded)
// distance slice for sources[i]; mask carries the local-sub-graph
// restriction described at DijkstraInto. hops, when non-nil, receives the
// per-source first-hop vectors (see DijkstraIntoHops); hops[i] may be nil
// to skip a source.
// It returns the total operation count across all sources (for LogP
// accounting; the caller divides by the worker count to model the
// parallel-section time).
func MultiSourceHops(g *graph.Graph, sources []int32, rows [][]graph.Dist, hops [][]int32, mask []bool, workers int) int64 {
	hopOf := hopIndexer(sources, rows, hops)
	return multiSourceRun(len(sources), workers, func() func(i int) int64 {
		buf := &heapBuf{}
		return func(i int) int64 {
			return DijkstraIntoHops(g, sources[i], rows[i], hopOf(i), mask, buf)
		}
	})
}

// MultiSourceHopsBFS is MultiSourceHops for unit-weight graphs: every
// source runs the flat-FIFO BFS of BFSIntoHops instead of heap Dijkstra.
// The caller is responsible for ensuring all edge weights equal 1 (see
// graph.Stats).
func MultiSourceHopsBFS(g *graph.Graph, sources []int32, rows [][]graph.Dist, hops [][]int32, mask []bool, workers int) int64 {
	hopOf := hopIndexer(sources, rows, hops)
	return multiSourceRun(len(sources), workers, func() func(i int) int64 {
		buf := &queueBuf{}
		return func(i int) int64 {
			return BFSIntoHops(g, sources[i], rows[i], hopOf(i), mask, buf)
		}
	})
}

func hopIndexer(sources []int32, rows [][]graph.Dist, hops [][]int32) func(int) []int32 {
	if len(sources) != len(rows) {
		panic("sssp: sources/rows length mismatch")
	}
	return func(i int) []int32 {
		if hops == nil {
			return nil
		}
		return hops[i]
	}
}

// multiSourceRun fans the source indices [0, n) across `workers`
// goroutines. newWorker is called once per goroutine to build its runner
// around private scratch buffers.
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
	// next is the shared source cursor: workers claim indices with one
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
