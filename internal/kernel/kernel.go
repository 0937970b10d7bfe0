// Package kernel holds the min-plus relaxation inner loops that dominate
// the engine's recombination (RC) phase. Both RC relaxations — external
// boundary-delta relaxation and the local Floyd–Warshall-style refinement —
// and the dense APSP oracle reduce to the same operation: lower a distance
// row by composing a base distance with a pivot row,
//
//	dst[t] = min(dst[t], add + src[t]).
//
// MinPlusHops, MinPlus, the masked sweep MinPlusHopsBlocks (masked.go) and
// the multi-pivot sweep behind Group and Tile (group.go), which relaxes one
// row through up to GroupK pivots in a single pass, have two bodies behind
// one signature, chosen once at package init: an 8-lane AVX2 sweep in Go
// assembly (minplus_amd64.s, used when CPUID reports AVX2 and the OS saves
// the YMM state) and the portable scalar loop (minplus_generic.go and
// group.go: other architectures, -tags purego, -race, rows narrower than
// one vector, the n mod 8 tail and a mask's partial last block). They
// produce identical dst, nh, frontier bits and changed windows, so the
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

// MinPlusHops relaxes dst through a pivot whose distance column is src:
// for every index t, dst[t] = min(dst[t], add+src[t]), recording hop as
// the next hop nh[t] whenever the composition improves. add is the
// caller's distance to the pivot and must be finite; src entries equal to
// InfDist never improve. If src and dst lengths differ, the overlap is
// relaxed (shipped columns may trail the local width, and delta windows
// start mid-row via pre-sliced dst/nh).
//
// It returns the half-open window [lo, hi) of indices that changed, in
// src's index space; lo >= hi means nothing improved.
func MinPlusHops(dst []graph.Dist, nh []int32, src []graph.Dist, add graph.Dist, hop int32) (lo, hi int) {
	n := len(src)
	if len(dst) < n {
		n = len(dst)
	}
	return hopsBody(dst[:n], nh[:n], src[:n], add, hop)
}

// MinPlusTile relaxes dst through a tile of pivot rows resident in a flat
// row-major arena (see dv.Matrix): pivot p's distance row is
// arena[offs[p]*stride : offs[p]*stride+len(dst)] and owners[p] is its
// owner's global vertex ID (the column of dst holding the distance to the
// pivot). Pivots apply in slice order, and each pivot's add is dst[owners[p]]
// as the earlier pivots of the tile left it — exactly the sequence the
// one-pivot-at-a-time loop produces, which keeps tiled refinement
// bit-identical to the untiled pass. The pivots are swept GroupK at a time
// through the grouped body (see Group).
//
// dst must not alias any pivot row in the tile (the caller skips the tile's
// own rows). It returns the changed window [lo, hi) like MinPlusHops plus
// the number of relax operations performed (len(dst) per applied pivot).
func MinPlusTile(dst []graph.Dist, nh []int32, arena []graph.Dist, stride int, offs, owners []int32) (lo, hi int, ops int64) {
	n := len(dst)
	lo, hi = n, 0
	var g Group
	for p0 := 0; p0 < len(offs); p0 += GroupK {
		g.Reset()
		for pi := p0; pi < min(p0+GroupK, len(offs)); pi++ {
			g.Push(arena[int(offs[pi])*stride:int(offs[pi])*stride+n], 0, owners[pi])
		}
		g.Prepare(n)
		clo, chi, o := g.Relax(dst, nh, nil)
		lo, hi, ops = min(lo, clo), max(hi, chi), ops+o
	}
	return lo, hi, ops
}

// MinPlus is MinPlusHops without next-hop tracking, for dense matrices
// that carry distances only (the Floyd–Warshall oracle). Reports whether
// any index improved.
func MinPlus(dst, src []graph.Dist, add graph.Dist) bool {
	n := len(src)
	if len(dst) < n {
		n = len(dst)
	}
	return distBody(dst[:n], src[:n], add)
}

// hopsBody and distBody are the loop bodies behind MinPlusHops and MinPlus,
// both taking slices already cut to one length: the scalar loops of
// minplus_generic.go unless minplus_amd64.go's init found AVX2.
var (
	hopsBody = minPlusHopsGeneric
	distBody = minPlusGeneric
)
