// Package kernel holds the min-plus relaxation inner loops that dominate
// the engine's recombination (RC) phase. Both RC relaxations — external
// boundary-delta relaxation and the local Floyd–Warshall-style refinement —
// and the dense APSP oracle reduce to the same operation: lower a distance
// row by composing a base distance with a pivot row,
//
//	dst[t] = min(dst[t], add + src[t]).
//
// MinPlusHops and MinPlus have two bodies behind one signature, chosen
// once at package init: an 8-lane AVX2 sweep in Go assembly
// (minplus_amd64.s, used when CPUID reports AVX2 and the OS saves the YMM
// state) and the portable scalar loop (minplus_generic.go: other
// architectures, -tags purego, -race, rows narrower than one vector, and
// the n mod 8 tail). They produce identical dst, nh and changed windows,
// so the choice changes wall-clock only — never an op count or a result.
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
// pivot). Pivots apply in slice order, and dst[owners[p]] is re-read per
// pivot so improvements from earlier pivots in the tile feed later ones —
// exactly the sequence the one-pivot-at-a-time loop produces, which keeps
// tiled refinement bit-identical to the untiled pass.
//
// dst must not alias any pivot row in the tile (the caller skips the tile's
// own rows). It returns the changed window [lo, hi) like MinPlusHops plus
// the number of relax operations performed (len(dst) per applied pivot).
//
// The per-pivot sweep delegates to MinPlusHops rather than open-coding the
// loop: keeping lo/hi/ops and the five slice headers live across a fused
// inner loop forces the compiler to spill the induction variable and dst
// base to the stack each iteration, which measures ~30% slower than the
// tight two-header loop (see BenchmarkRCKernelTile*).
func MinPlusTile(dst []graph.Dist, nh []int32, arena []graph.Dist, stride int, offs, owners []int32) (lo, hi int, ops int64) {
	n := len(dst)
	lo, hi = n, 0
	for pi, off := range offs {
		add := dst[owners[pi]]
		if add == graph.InfDist {
			continue
		}
		src := arena[int(off)*stride : int(off)*stride+n]
		clo, chi := MinPlusHops(dst, nh, src, add, nh[owners[pi]])
		ops += int64(n)
		if clo < chi {
			if lo > clo {
				lo = clo
			}
			if hi < chi {
				hi = chi
			}
		}
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
