package sssp

import (
	"anytime/internal/graph"
	"anytime/internal/kernel"
)

// queueBuf is a reusable flat FIFO queue for repeated BFS runs, the
// unit-weight counterpart of heapBuf. seed is the scratch one-bit frontier
// BFSInto hands the frontier-seeded core.
type queueBuf struct {
	q    []int32
	seed kernel.Bitset
}

// BFSInto is DijkstraInto specialized to unit edge weights: with every
// weight equal to 1 the priority queue pops vertices in nondecreasing
// distance order anyway, so the binary heap degenerates to a plain FIFO —
// no sift-up/down, no lazy duplicates, one queue slot per vertex. The
// contract (pre-filled dist, mask = relax-but-don't-expand boundary
// semantics, LogP op count of pops plus edge scans) is identical to
// DijkstraInto; calling it on a graph with any weight != 1 yields wrong
// distances. It is a one-bit wrapper over the frontier-seeded core
// BFSFrontierInto.
func BFSInto(g *graph.Graph, src int32, dist []graph.Dist, mask []bool, buf *queueBuf) int64 {
	dist[src] = 0
	if want := kernel.BitsetWords(len(dist)); len(buf.seed) < want {
		buf.seed = kernel.NewBitset(len(dist))
	}
	buf.seed.Set(int(src))
	ops := BFSFrontierInto(g, buf.seed, dist, mask, buf)
	buf.seed.Clear(int(src))
	return ops
}

// BFSFrontierInto is the frontier-seeded core of the unit-weight BFS fast
// path: instead of expanding from a single source, the queue is seeded
// with every vertex set in frontier — at its pre-filled distance — found
// by word-level NextSet iteration over the bitmask rather than an O(n) row
// scan. The loop is SPFA-shaped rather than strict BFS: a vertex
// re-enqueues whenever its distance improves, so mixed-depth seeds (the
// change frontier a masked relaxation pass leaves behind) converge to the
// same fixed point a full re-expansion from the source would.
//
// Contract: dist holds valid unit-weight upper bounds; seeds at InfDist
// are skipped (nothing to expand yet). Returns the LogP op count (pops
// plus edge scans).
func BFSFrontierInto(g *graph.Graph, frontier kernel.Bitset, dist []graph.Dist, mask []bool, buf *queueBuf) int64 {
	q := buf.q[:0]
	for v := frontier.NextSet(0); v >= 0 && v < len(dist); v = frontier.NextSet(v + 1) {
		if dist[v] == graph.InfDist {
			continue
		}
		q = append(q, int32(v))
	}
	var ops int64
	for head := 0; head < len(q); head++ {
		v := q[head]
		ops++
		if mask != nil && !mask[v] {
			continue // boundary vertex: relaxed but not expanded
		}
		d := dist[v]
		for _, a := range g.Neighbors(int(v)) {
			ops++
			nd := d + 1
			if nd < dist[a.To] {
				dist[a.To] = nd
				q = append(q, a.To)
			}
		}
	}
	buf.q = q[:0]
	return ops
}
