//go:build !amd64 || purego || race

package kernel

import "anytime/internal/graph"

// blocksBody relaxes the whole 8-column blocks of a compiled mask; builds
// without the AVX2 body run the scalar loop.
func blocksBody(dst, src []graph.Dist, blocks []uint32, add graph.Dist, rec Bitset, base int) (lo, hi int) {
	return minPlusBlocksGeneric(dst, src, blocks, add, rec, base)
}

// groupBody relaxes dst through the k >= 2 pivots of set (see
// Group.Relax); builds without the AVX2 body run the scalar loop.
func groupBody(dst []graph.Dist, set *groupSet, st *groupState) {
	groupGeneric(dst, &set.cut, st, set.k, 0)
}
