// Package centrality provides the sequential reference implementations of
// closeness (the paper's measure) and harmonic closeness — the
// verification oracles the distributed engine is checked against — plus
// the heap-based top-k selection the serving layer ranks snapshots with.
package centrality

import (
	"runtime"
	"sync"

	"anytime/internal/graph"
	"anytime/internal/sssp"
)

// Closeness computes exact closeness centrality for every vertex:
// C(v) = 1 / Σ_t d(v,t) over reachable t ≠ v (0 if nothing is reachable).
func Closeness(g *graph.Graph) []float64 {
	n := g.NumVertices()
	out := make([]float64, n)
	parallelOver(n, func(v int) {
		d := sssp.Dijkstra(g, v)
		var sum int64
		for t, dt := range d {
			if t != v && dt != graph.InfDist {
				sum += int64(dt)
			}
		}
		if sum != 0 {
			out[v] = 1 / float64(sum)
		}
	})
	return out
}

// Harmonic computes harmonic closeness: H(v) = Σ_t 1/d(v,t), naturally
// handling disconnected graphs.
func Harmonic(g *graph.Graph) []float64 {
	n := g.NumVertices()
	out := make([]float64, n)
	parallelOver(n, func(v int) {
		d := sssp.Dijkstra(g, v)
		var h float64
		for t, dt := range d {
			if t != v && dt != graph.InfDist {
				h += 1 / float64(dt)
			}
		}
		out[v] = h
	})
	return out
}

// parallelOver runs fn(i) for i in [0,n) over GOMAXPROCS workers.
func parallelOver(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	ch := make(chan int, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range ch {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
}

// TopK returns the indices of the k largest scores, ties broken by lower
// index, in descending score order. k <= 0 yields an empty result and
// k > len(scores) is clamped. Selection is heap-based, O(n log k), so
// building a serving-layer top-k index over a large snapshot stays cheap.
func TopK(scores []float64, k int) []int {
	if k > len(scores) {
		k = len(scores)
	}
	if k <= 0 {
		return nil
	}
	// beats(a, b): index a ranks strictly ahead of index b.
	beats := func(a, b int) bool {
		return scores[a] > scores[b] || (scores[a] == scores[b] && a < b)
	}
	// min-heap of the k best seen so far; heap[0] is the weakest kept.
	heap := make([]int, 0, k)
	siftDown := func(i int) {
		for {
			l, r, m := 2*i+1, 2*i+2, i
			if l < len(heap) && beats(heap[m], heap[l]) {
				m = l
			}
			if r < len(heap) && beats(heap[m], heap[r]) {
				m = r
			}
			if m == i {
				return
			}
			heap[m], heap[i] = heap[i], heap[m]
			i = m
		}
	}
	for i := range scores {
		if len(heap) < k {
			heap = append(heap, i)
			for c := len(heap) - 1; c > 0; {
				p := (c - 1) / 2
				if !beats(heap[p], heap[c]) {
					break
				}
				heap[p], heap[c] = heap[c], heap[p]
				c = p
			}
		} else if beats(i, heap[0]) {
			heap[0] = i
			siftDown(0)
		}
	}
	// pop the weakest repeatedly to emit descending order.
	out := heap
	for n := len(heap) - 1; n > 0; n-- {
		heap[0], heap[n] = heap[n], heap[0]
		heap = heap[:n]
		siftDown(0)
	}
	return out
}
