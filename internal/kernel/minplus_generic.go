package kernel

import (
	"math/bits"

	"anytime/internal/graph"
)

// This file holds the portable scalar bodies of MinPlusWindow and the
// compiled-mask sweep. They are the only bodies on non-amd64, purego and
// -race builds (so the race detector sees every row write), and on amd64
// they relax calls narrower than one vector, the n mod 8 tail of wider
// ones and a mask's partial last block.
//
// Both compare unsigned. Distances are non-negative int32, so as uint32
// add+src[t] is at most 2·InfDist and cannot wrap, and an unreachable
// src[t] == InfDist composes to a sum >= InfDist >= dst[t], which never
// improves: no explicit Inf test is needed, and the scalar and vector
// bodies agree on every non-negative input, not just on distances kept
// below InfDist/2.

// minPlusGeneric relaxes equal-length dst and src; see MinPlusWindow.
func minPlusGeneric(dst, src []graph.Dist, add graph.Dist) (lo, hi int) {
	n := len(src)
	dst = dst[:n]
	lo, hi = n, 0
	for t, bt := range src {
		if nd := uint32(add) + uint32(bt); nd < uint32(dst[t]) {
			dst[t] = graph.Dist(nd)
			if lo > t {
				lo = t
			}
			hi = t + 1
		}
	}
	return lo, hi
}

// minPlusBlocksGeneric relaxes equal-length dst and src over the columns
// of a compiled block list (see BlockMask), in ascending order, recording
// improved columns into rec at base+t when rec is non-nil. Returns the
// changed window, (len(dst), 0) when nothing improved.
func minPlusBlocksGeneric(dst, src []graph.Dist, blocks []uint32, add graph.Dist, rec Bitset, base int) (lo, hi int) {
	lo, hi = len(dst), 0
	for _, b := range blocks {
		t0 := int(b>>5) &^ 7
		for lanes := b & 0xff; lanes != 0; lanes &= lanes - 1 {
			t := t0 + bits.TrailingZeros32(lanes)
			if nd := uint32(add) + uint32(src[t]); nd < uint32(dst[t]) {
				dst[t] = graph.Dist(nd)
				if rec != nil {
					rec.Set(base + t)
				}
				if lo > t {
					lo = t
				}
				hi = t + 1
			}
		}
	}
	return lo, hi
}
