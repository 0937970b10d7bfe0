// Package kernel holds the min-plus relaxation inner loops that dominate
// the engine's recombination (RC) phase. Both RC relaxations — external
// boundary-delta relaxation and the local Floyd–Warshall-style refinement —
// and the dense APSP oracle reduce to the same operation: lower a distance
// row by composing a base distance with a pivot row,
//
//	dst[t] = min(dst[t], add + src[t]).
//
// MinPlusWindow, the masked sweep MinPlusBlocks (masked.go) and the
// multi-pivot sweep behind Group and Tile (group.go), which relaxes one
// row through up to GroupK pivots in a single pass, have two bodies behind
// one signature, chosen once at package init: an 8-lane AVX2 sweep in Go
// assembly (minplus_amd64.s, used when CPUID reports AVX2 and the OS saves
// the YMM state) and the portable scalar loop (minplus_generic.go and
// group.go: other architectures, -tags purego, -race, rows narrower than
// one vector, the n mod 8 tail and a mask's partial last block). They
// produce identical dst, frontier bits and changed windows, so the
// choice changes wall-clock only — never an op count or a result.
//
// The scalar loops are written so the compiler can eliminate the
// per-iteration bounds checks: every slice is re-sliced to the shared loop
// bound up front, making the `range src` induction variable provably in
// range for all of them.
//
// Distances are non-negative and compared unsigned, so `add + src[t]`
// cannot wrap and an InfDist operand can never improve a row; see
// minplus_generic.go.
package kernel

import "anytime/internal/graph"

// MinPlusWindow relaxes dst through a pivot whose distance column is src:
// for every index t, dst[t] = min(dst[t], add+src[t]). add is the
// caller's distance to the pivot and must be finite; src entries equal to
// InfDist never improve. If src and dst lengths differ, the overlap is
// relaxed (shipped columns may trail the local width, and delta windows
// start mid-row via a pre-sliced dst).
//
// It returns the half-open window [lo, hi) of indices that changed, in
// src's index space; lo >= hi means nothing improved.
func MinPlusWindow(dst, src []graph.Dist, add graph.Dist) (lo, hi int) {
	n := len(src)
	if len(dst) < n {
		n = len(dst)
	}
	return windowBody(dst[:n], src[:n], add)
}

// MinPlus is MinPlusWindow reporting only whether any index improved, for
// dense matrices relaxed without frontier bookkeeping (the Floyd–Warshall
// oracle).
func MinPlus(dst, src []graph.Dist, add graph.Dist) bool {
	lo, hi := MinPlusWindow(dst, src, add)
	return lo < hi
}

// windowBody is the loop body behind MinPlusWindow, taking slices already
// cut to one length: the scalar loop of minplus_generic.go unless
// minplus_amd64.go's init found AVX2.
var windowBody = minPlusGeneric
