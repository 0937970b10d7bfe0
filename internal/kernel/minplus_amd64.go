//go:build amd64 && !purego && !race

package kernel

import "anytime/internal/graph"

// Implemented in minplus_amd64.s.

//go:noescape
func minPlusHopsAVX2(dst, nh, src *int32, n int, add, hop int32) (lo, hi int)

//go:noescape
func minPlusAVX2(dst, src *int32, n int, add int32) bool

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax uint32)

// useAVX2 is decided once, before any kernel call: the CPU has AVX2 and the
// OS saves the YMM state across context switches.
var useAVX2 = detectAVX2()

func init() {
	if useAVX2 {
		hopsBody = minPlusHopsSIMD
		distBody = minPlusSIMD
	}
}

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	if xgetbv0()&(xmmState|ymmState) != xmmState|ymmState {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// minPlusHopsSIMD is the AVX2 body of MinPlusHops: whole 8-lane blocks in
// assembly, fewer than 8 columns and the n mod 8 tail in the scalar loop,
// and the two windows joined. The narrow calls matter as much as the
// streaming rate — most calls of a vertex-addition cycle are delta windows
// of 16 to 63 columns — so this path adds nothing per call beyond the two
// length tests.
func minPlusHopsSIMD(dst []graph.Dist, nh []int32, src []graph.Dist, add graph.Dist, hop int32) (lo, hi int) {
	n := len(src)
	n8 := n &^ 7
	if n8 == 0 {
		return minPlusHopsGeneric(dst, nh, src, add, hop)
	}
	_, _ = dst[n-1], nh[n-1]
	lo, hi = minPlusHopsAVX2(&dst[0], &nh[0], &src[0], n8, add, hop)
	if n8 == n {
		return lo, hi
	}
	tlo, thi := minPlusHopsGeneric(dst[n8:n], nh[n8:n], src[n8:], add, hop)
	if tlo < thi {
		if hi == 0 {
			lo = n8 + tlo
		}
		hi = n8 + thi
	}
	if hi == 0 {
		lo = n
	}
	return lo, hi
}

// minPlusSIMD is the AVX2 body of MinPlus, split like minPlusHopsSIMD.
func minPlusSIMD(dst, src []graph.Dist, add graph.Dist) bool {
	n := len(src)
	n8 := n &^ 7
	changed := false
	if n8 > 0 {
		_ = dst[n-1]
		changed = minPlusAVX2(&dst[0], &src[0], n8, add)
	}
	if n8 < n && minPlusGeneric(dst[n8:n], src[n8:], add) {
		changed = true
	}
	return changed
}
