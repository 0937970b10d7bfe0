package sssp

import (
	"math/bits"

	"anytime/internal/graph"
)

// batchWidth is the number of sources one bit-parallel BFS pass serves: one
// bit of a 64-bit word each.
const batchWidth = 64

// bitBFS is one worker's scratch for the bit-parallel multi-source BFS
// (Then et al., "The More the Merrier", PVLDB 2014). Each vertex holds one
// word per set; bit j of a word stands for source j of the current batch.
// Every word is zero between batches.
type bitBFS struct {
	seen  []uint64 // sources that have reached the vertex
	front []uint64 // sources that reached it at the current level
	next  []uint64 // sources that reach it at the next level
	// touched has bit v set while next[v] is nonzero, so the settle pass
	// visits the next level in vertex order and its row writes run forward.
	touched []uint64
	// reached lists the vertices with a nonzero seen word, each once; cur
	// the vertices of the current level's frontier.
	reached, cur []int32
}

// run searches from up to batchWidth sources at once: sources[j]'s
// distances go into rows[j], which must be fresh (InfDist except the
// source's own 0). A vertex outside mask is reached but never expanded. It
// returns the op count a FIFO BFS per source charges — one pop per reached
// (source, vertex) pair plus, where the vertex may expand, one scan per
// incident arc — in closed form from the final seen words.
func (b *bitBFS) run(g *graph.Graph, sources []int32, rows [][]graph.Dist, mask []bool) int64 {
	if n := g.NumVertices(); len(b.seen) < n {
		b.seen = make([]uint64, n)
		b.front = make([]uint64, n)
		b.next = make([]uint64, n)
		b.touched = make([]uint64, (n+63)/64)
		// Each vertex enters reached at most once and a level's cur at
		// most once, so neither list grows after this.
		b.reached = make([]int32, 0, n)
		b.cur = make([]int32, 0, n)
	}
	seen, front, next, touched := b.seen, b.front, b.next, b.touched
	reached, cur := b.reached[:0], b.cur[:0]
	for j, s := range sources {
		if seen[s] == 0 {
			reached = append(reached, s)
			cur = append(cur, s)
		}
		seen[s] |= 1 << uint(j)
		front[s] |= 1 << uint(j)
		rows[j][s] = 0
	}
	for level := graph.Dist(1); len(cur) > 0; level++ {
		// Expand: every frontier vertex that may expand offers its
		// frontier bits to each neighbour that has not seen them.
		for _, v := range cur {
			f := front[v]
			front[v] = 0
			if mask != nil && !mask[v] {
				continue
			}
			for _, a := range g.Neighbors(int(v)) {
				if x := f &^ seen[a.To]; x != 0 {
					next[a.To] |= x
					touched[a.To>>6] |= 1 << uint(a.To&63)
				}
			}
		}
		// Settle: the bits a vertex gained are exactly the sources whose
		// distance to it is this level.
		cur = cur[:0]
		for w, word := range touched {
			if word == 0 {
				continue
			}
			touched[w] = 0
			for ; word != 0; word &= word - 1 {
				v := int32(w<<6 + bits.TrailingZeros64(word))
				x := next[v]
				next[v] = 0
				if seen[v] == 0 {
					reached = append(reached, v)
				}
				seen[v] |= x
				front[v] = x
				cur = append(cur, v)
				for ; x != 0; x &= x - 1 {
					rows[bits.TrailingZeros64(x)][v] = level
				}
			}
		}
	}
	var ops int64
	for _, v := range reached {
		c := int64(bits.OnesCount64(seen[v]))
		seen[v] = 0
		if mask == nil || mask[v] {
			c *= 1 + int64(len(g.Neighbors(int(v))))
		}
		ops += c
	}
	return ops
}
