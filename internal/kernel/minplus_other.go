//go:build !amd64 || purego || race

package kernel

import "anytime/internal/graph"

// blocksBody relaxes the whole 8-column blocks of a compiled mask; builds
// without the AVX2 body run the scalar loop.
func blocksBody(dst []graph.Dist, nh []int32, src []graph.Dist, blocks []uint32, add graph.Dist, hop int32, rec Bitset, base int) (lo, hi int) {
	return minPlusBlocksGeneric(dst, nh, src, blocks, add, hop, rec, base)
}
