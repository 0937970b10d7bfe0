package kernel

import "anytime/internal/graph"

// This file holds the portable scalar bodies of MinPlusHops and MinPlus.
// They are the only bodies on non-amd64, purego and -race builds (so the
// race detector sees every row write), and on amd64 they relax calls
// narrower than one vector and the n mod 8 tail of wider ones.
//
// Both compare unsigned. Distances are non-negative int32, so as uint32
// add+src[t] is at most 2·InfDist and cannot wrap, and an unreachable
// src[t] == InfDist composes to a sum >= InfDist >= dst[t], which never
// improves: no explicit Inf test is needed, and the scalar and vector
// bodies agree on every non-negative input, not just on distances kept
// below InfDist/2.

// minPlusHopsGeneric relaxes equal-length dst, nh and src; see MinPlusHops.
func minPlusHopsGeneric(dst []graph.Dist, nh []int32, src []graph.Dist, add graph.Dist, hop int32) (lo, hi int) {
	n := len(src)
	dst = dst[:n]
	nh = nh[:n]
	lo, hi = n, 0
	for t, bt := range src {
		if nd := uint32(add) + uint32(bt); nd < uint32(dst[t]) {
			dst[t] = graph.Dist(nd)
			nh[t] = hop
			if lo > t {
				lo = t
			}
			hi = t + 1
		}
	}
	return lo, hi
}

// minPlusGeneric relaxes equal-length dst and src; see MinPlus.
func minPlusGeneric(dst, src []graph.Dist, add graph.Dist) bool {
	dst = dst[:len(src)]
	changed := false
	for t, bt := range src {
		if nd := uint32(add) + uint32(bt); nd < uint32(dst[t]) {
			dst[t] = graph.Dist(nd)
			changed = true
		}
	}
	return changed
}
