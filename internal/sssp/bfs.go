package sssp

import (
	"anytime/internal/graph"
)

// queueBuf is a reusable flat FIFO queue for repeated BFS runs, the
// unit-weight counterpart of heapBuf.
type queueBuf struct{ q []int32 }

// BFSInto is DijkstraInto specialized to unit edge weights: with every
// weight equal to 1 the priority queue pops vertices in nondecreasing
// distance order anyway, so the binary heap degenerates to a plain FIFO —
// no sift-up/down, no lazy duplicates, one queue slot per vertex. The
// contract (pre-filled dist, mask = relax-but-don't-expand boundary
// semantics, LogP op count of pops plus edge scans) is identical to
// DijkstraInto; calling it on a graph with any weight != 1 yields wrong
// distances. The APSP oracle runs it; the engine's IA runs the
// bit-parallel MultiSourceBFS, so the two share no search code.
func BFSInto(g *graph.Graph, src int32, dist []graph.Dist, mask []bool, buf *queueBuf) int64 {
	dist[src] = 0
	q := append(buf.q[:0], src)
	var ops int64
	for head := 0; head < len(q); head++ {
		v := q[head]
		ops++
		if mask != nil && !mask[v] {
			continue // boundary vertex: relaxed but not expanded
		}
		nd := dist[v] + 1
		for _, a := range g.Neighbors(int(v)) {
			ops++
			if nd < dist[a.To] {
				dist[a.To] = nd
				q = append(q, a.To)
			}
		}
	}
	buf.q = q[:0]
	return ops
}
