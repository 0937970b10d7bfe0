package kernel

import "anytime/internal/graph"

// The three signatures the benchmark's kernel probe calls
// (benchmark/probes.go), which still pass next-hop rows. Rows hold
// distances only, so each runs the engine's distance-only body and ignores
// nh and hop: the probe times the kernel the engine runs. No engine code
// calls them.

// MinPlusHops is MinPlusWindow.
func MinPlusHops(dst []graph.Dist, nh []int32, src []graph.Dist, add graph.Dist, hop int32) (lo, hi int) {
	return MinPlusWindow(dst, src, add)
}

// MinPlusTile relaxes dst through the pivot rows arena[offs[p]*stride:]
// owned by column owners[p], in order, GroupK at a time through
// Group.Relax; it returns the changed window and ops (len(dst) per
// applied pivot).
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
		clo, chi, o := g.Relax(dst, nil)
		lo, hi, ops = min(lo, clo), max(hi, chi), ops+o
	}
	return lo, hi, ops
}

// MinPlusHopsMasked is BlockMask.Compile then MinPlusBlocks over the
// overlap of dst and src, compiling 16 mask words at a time into a stack
// buffer so it does not allocate. It returns the changed window and the
// columns visited.
func MinPlusHopsMasked(dst []graph.Dist, nh []int32, src []graph.Dist, add graph.Dist, hop int32, mask, rec Bitset, base int) (lo, hi, ops int) {
	n := min(len(src), len(dst))
	var buf [16 * 8]uint32 // at most 8 blocks per word
	m := BlockMask{n: n}
	lo, hi = n, 0
	words := min(BitsetWords(n), len(mask))
	for w0 := 0; w0 < words; w0 += 16 {
		m.blocks, m.full, m.ops = compileWords(buf[:0], mask[w0:min(w0+16, words)], w0, n)
		if clo, chi := MinPlusBlocks(dst, src, add, &m, rec, base); clo < chi {
			lo, hi = min(lo, clo), chi
		}
		ops += m.ops
	}
	return lo, hi, ops
}
