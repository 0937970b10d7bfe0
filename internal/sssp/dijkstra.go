// Package sssp implements the shortest-path kernels of the engine:
// binary-heap Dijkstra (single source), the multithreaded multi-source
// Dijkstra and, on unit weights, the bit-parallel multi-source BFS used by
// the Initial Approximation phase, Bellman–Ford and Floyd–Warshall
// reference/refinement algorithms, and a sequential APSP oracle used to
// verify the distributed computation.
package sssp

import (
	"anytime/internal/graph"
)

// heap is a hand-rolled binary min-heap of (vertex, dist) keyed by dist.
// Hand-rolled (rather than container/heap) to avoid interface boxing on the
// hot path; decrease-key is realized by lazy insertion with a settled mask.
type heap struct {
	v []int32
	d []graph.Dist
}

func (h *heap) push(v int32, d graph.Dist) {
	h.v = append(h.v, v)
	h.d = append(h.d, d)
	i := len(h.v) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.d[p] <= h.d[i] {
			break
		}
		h.v[p], h.v[i] = h.v[i], h.v[p]
		h.d[p], h.d[i] = h.d[i], h.d[p]
		i = p
	}
}

func (h *heap) pop() (int32, graph.Dist) {
	v, d := h.v[0], h.d[0]
	last := len(h.v) - 1
	h.v[0], h.d[0] = h.v[last], h.d[last]
	h.v, h.d = h.v[:last], h.d[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && h.d[l] < h.d[m] {
			m = l
		}
		if r < last && h.d[r] < h.d[m] {
			m = r
		}
		if m == i {
			break
		}
		h.v[m], h.v[i] = h.v[i], h.v[m]
		h.d[m], h.d[i] = h.d[i], h.d[m]
		i = m
	}
	return v, d
}

func (h *heap) empty() bool { return len(h.v) == 0 }

func (h *heap) reset() { h.v, h.d = h.v[:0], h.d[:0] }

// Dijkstra computes single-source shortest path distances from src over the
// whole graph, returning a length-N distance slice (InfDist = unreachable).
func Dijkstra(g *graph.Graph, src int) []graph.Dist {
	dist := make([]graph.Dist, g.NumVertices())
	for i := range dist {
		dist[i] = graph.InfDist
	}
	DijkstraInto(g, int32(src), dist, nil, &heapBuf{})
	return dist
}

// heapBuf is a reusable scratch buffer for repeated Dijkstra runs.
type heapBuf struct{ h heap }

// DijkstraInto runs Dijkstra from src into the provided dist slice (which
// must be pre-filled with InfDist except any entries the caller wants to
// seed). If mask is non-nil, traversal is restricted to vertices v with
// mask[v] == true; arcs leading outside the mask still relax the target's
// distance but the target is not expanded. This is exactly the "local
// sub-graph with external boundary vertices" semantics of the IA phase:
// boundary vertices receive distances but do not propagate through their
// (unknown) external edges.
//
// The returned count of heap pops plus edge scans feeds the LogP
// virtual-time accounting.
func DijkstraInto(g *graph.Graph, src int32, dist []graph.Dist, mask []bool, buf *heapBuf) int64 {
	h := &buf.h
	h.reset()
	dist[src] = 0
	h.push(src, 0)
	var ops int64
	for !h.empty() {
		v, d := h.pop()
		ops++
		if d > dist[v] {
			continue // stale entry
		}
		if mask != nil && !mask[v] {
			continue // boundary vertex: relaxed but not expanded
		}
		for _, a := range g.Neighbors(int(v)) {
			ops++
			nd := d + a.Weight
			if nd < dist[a.To] {
				dist[a.To] = nd
				h.push(a.To, nd)
			}
		}
	}
	return ops
}

// APSP computes all-pairs shortest paths sequentially — one FIFO BFSInto
// per source on unit weights, one Dijkstra otherwise — into n rows over one
// backing array; row i is the distance vector of vertex i. It is the
// verification oracle for the distributed engine; on unit weights it
// shares no search code with the engine's bit-parallel IA.
func APSP(g *graph.Graph) [][]graph.Dist {
	n := g.NumVertices()
	cells := make([]graph.Dist, n*n)
	for i := range cells {
		cells[i] = graph.InfDist
	}
	unit := graph.Stats(g).UnitWeights
	var qb queueBuf
	var hb heapBuf
	out := make([][]graph.Dist, n)
	for s := range out {
		out[s] = cells[s*n : (s+1)*n : (s+1)*n]
		if unit {
			BFSInto(g, int32(s), out[s], nil, &qb)
		} else {
			DijkstraInto(g, int32(s), out[s], nil, &hb)
		}
	}
	return out
}
