package kernel

import (
	"math/bits"

	"anytime/internal/graph"
)

// This file holds the frontier-masked variants of the min-plus kernels.
//
// A frontier bitmask records, per row, which columns changed since the last
// clean global convergence (a fixpoint of the relaxation system). At such a
// fixpoint every composition through a pivot p satisfies
//
//	dst[p.owner] + p.D[t] >= dst[t]
//
// so a relaxation (dst, p, t) can only improve dst[t] if at least one of
// the three participating values moved since then: dst's distance to the
// pivot, the pivot's entry for t, or dst[t] itself — and dst[t] only ever
// decreases, which cannot turn a non-improving composition into an
// improving one. Hence a pass may soundly skip every column t where the
// pivot's frontier bit is clear, provided dst's own distance-to-pivot entry
// is also unchanged. Masks over-approximate the true change set, so masked
// and full sweeps produce bit-identical distance matrices; masking is
// purely a work filter.
//
// A mask is swept in compiled form, a BlockMask: the ascending list of its
// nonzero 8-column blocks, each one column index and the 8 lane bits of the
// mask there. The caller compiles a mask once and sweeps it over many rows
// (every local row against one received delta, every remainder row against
// one pivot), so the all-zero words of a sparse frontier are scanned once
// per mask instead of once per row. The blocks are relaxed by the body the
// dense kernel's init-time CPUID test selected: 8 lanes at a time in AVX2
// assembly (minplus_amd64.s: add, unsigned min, a lane predicate built from
// the block's bits, a blended store only when a masked lane improved), or
// by the scalar loop of minplus_generic.go, which also takes the partial
// last block of a width that is not a multiple of 8.
//
// Rec variants keep a destination frontier current as they relax. The two
// kinds record at different granularities, trading precision against
// hot-loop cost to match where each runs:
//
//   - MinPlusHopsRec (full sweeps) records the changed *window* [lo, hi) —
//     the convex hull of the improved columns — with one SetRange after the
//     sweep. Full sweeps run on dense passes where most compositions
//     improve, so any per-improvement instruction is hot: per-bit recording
//     inside the loop (whether a bounds-checked rec.Set or a register
//     accumulator flushed per word) measures 2-3× slower end-to-end than
//     the untouched MinPlusHops loop on the refine benches. The hull is an
//     over-approximation of the true change set, which is sound — masks
//     only ever need to be a superset — and matches the granularity the
//     delta pending windows already use.
//   - MinPlusHopsBlocks / MinPlusHopsMasked (masked sweeps) record exact
//     bits: the vector body ORs a block's improved lanes into rec in one
//     byte store, and precision keeps sparse cascades sparse.

// MinPlusHopsRec is MinPlusHops plus frontier recording: the changed
// window [lo, hi) is folded into rec as bits base+lo .. base+hi-1 (rec
// indexes the destination row's full column space; base is dst's offset
// within it, nonzero when the caller pre-sliced dst to start mid-row).
// rec may be nil.
func MinPlusHopsRec(dst []graph.Dist, nh []int32, src []graph.Dist, add graph.Dist, hop int32, rec Bitset, base int) (lo, hi int) {
	lo, hi = MinPlusHops(dst, nh, src, add, hop)
	if rec != nil && lo < hi {
		rec.SetRange(base+lo, base+hi)
	}
	return lo, hi
}

// BlockMask is a frontier mask compiled for one sweep width n: the
// ascending list of the mask's nonzero 8-column blocks below n. Each block
// packs its first column's block index (column/8) above 8 lane bits, bit i
// standing for column 8·index+i. Blocks that fit below n&^7 come first; the
// partial last block of a width that is not a multiple of 8 is kept apart
// at the end, because a vector load there would read past the row.
//
// The zero value is an empty mask of width 0. The blocks live in an arena
// the caller owns and passes to Compile, so one processor compiles all the
// masks of a relax phase into one growing slice and stops allocating once
// it has reached its working size.
type BlockMask struct {
	blocks []uint32
	full   int // blocks[:full] are whole blocks, blocks[full:] the partial one
	n      int // sweep width
	ops    int // mask bits below n: the columns one sweep visits
}

// maxBlockCols bounds the widths a BlockMask can address: a block keeps its
// column index in the 24 bits above the lane byte.
const maxBlockCols = 1 << 27

// Compile replaces m's content with mask restricted to columns [0, n) —
// bits at or past n are dropped, missing words read as zero — appending
// the blocks to arena, and returns the extended arena. m reads its blocks
// from there until the caller reuses that part of the arena.
func (m *BlockMask) Compile(arena []uint32, mask Bitset, n int) []uint32 {
	if n > maxBlockCols {
		panic("kernel: BlockMask width beyond 2^27 columns")
	}
	start := len(arena)
	arena, m.full, m.ops = compileWords(arena, mask, 0, n)
	m.blocks = arena[start:len(arena):len(arena)]
	m.n = n
	return arena
}

// compileWords appends to blocks the blocks of words, which hold words w0,
// w0+1, ... of a width-n column space, and returns the extended slice with
// the count of whole blocks appended and of bits below n. It is a function
// over the slice, not a method, so a caller's stack buffer passed in stays
// on the stack.
func compileWords(blocks []uint32, words []uint64, w0, n int) (out []uint32, full, ops int) {
	start := len(blocks)
	last := BitsetWords(n) - w0
	if last < len(words) {
		words = words[:max(last, 0)]
	}
	for i, word := range words {
		if word == 0 {
			continue
		}
		col := (w0 + i) << 6
		if lim := n - col; lim < 64 {
			word &= 1<<uint(lim) - 1
		}
		ops += bits.OnesCount64(word)
		for word != 0 {
			lane := uint(bits.TrailingZeros64(word)) &^ 7
			// (col+lane)/8 above the lane byte: col+lane is a multiple of 8
			blocks = append(blocks, uint32(col+int(lane))<<5|uint32(word>>lane)&0xff)
			word &^= 0xff << lane
		}
	}
	// Only the last block can start at or past n&^7.
	full = len(blocks) - start
	if full > 0 && int(blocks[len(blocks)-1]>>5)&^7 >= n&^7 {
		full--
	}
	return blocks, full, ops
}

// MaxBlocks returns the most blocks a mask compiled for width n can hold —
// what a Compile arena needs per mask in the worst case.
func MaxBlocks(n int) int { return (n + 7) >> 3 }

// Ops returns the number of columns one sweep of m visits — the mask's
// bits below its width, which is what the caller charges to the LogP clock
// in place of the full row width.
func (m *BlockMask) Ops() int { return m.ops }

// MinPlusHopsBlocks relaxes dst through a pivot row src over the columns of
// a compiled mask only: for every column t of m, dst[t] = min(dst[t],
// add+src[t]), recording hop as the next hop and setting rec bit base+t
// (rec may be nil) where the composition improves. dst, nh and src must be
// at least as long as the width m was compiled for; columns at or past it
// are not touched.
//
// Columns are relaxed in ascending order, as the full sweep does, and the
// soundness argument above makes the skipped ones provably non-improving,
// so the result is bit-identical to MinPlusHops. It returns the changed
// window [lo, hi), lo >= hi meaning nothing improved.
func MinPlusHopsBlocks(dst []graph.Dist, nh []int32, src []graph.Dist, add graph.Dist, hop int32, m *BlockMask, rec Bitset, base int) (lo, hi int) {
	n := m.n
	dst, nh, src = dst[:n], nh[:n], src[:n]
	if rec != nil && len(m.blocks) > 0 {
		_ = rec[(base+n-1)>>6] // every bit a block can set is below base+n
	}
	lo, hi = blocksBody(dst, nh, src, m.blocks[:m.full], add, hop, rec, base)
	if m.full < len(m.blocks) {
		if tlo, thi := minPlusBlocksGeneric(dst, nh, src, m.blocks[m.full:], add, hop, rec, base); tlo < thi {
			if lo > tlo {
				lo = tlo
			}
			hi = thi
		}
	}
	return lo, hi
}

// maskedChunkWords is how many mask words MinPlusHopsMasked compiles at a
// time into its stack buffer (at most 8 blocks per word).
const maskedChunkWords = 16

// MinPlusHopsMasked relaxes dst through a pivot row src, visiting only the
// columns whose bits are set in mask (the pivot's frontier: columns of src
// that changed since the last convergence) below min(len(dst), len(src)).
// Improved columns are recorded into rec (may be nil). It returns the
// changed window [lo, hi) plus the number of columns actually visited,
// which is what the caller charges to the LogP clock in place of the full
// row width.
//
// It is the one-shot form of Compile + MinPlusHopsBlocks, for a mask swept
// once: the mask is compiled a few words at a time into a stack buffer, so
// the call does not allocate.
func MinPlusHopsMasked(dst []graph.Dist, nh []int32, src []graph.Dist, add graph.Dist, hop int32, mask, rec Bitset, base int) (lo, hi, ops int) {
	n := len(src)
	if len(dst) < n {
		n = len(dst)
	}
	var buf [maskedChunkWords * 8]uint32
	m := BlockMask{n: n}
	lo, hi = n, 0
	words := BitsetWords(n)
	if words > len(mask) {
		words = len(mask)
	}
	for w0 := 0; w0 < words; w0 += maskedChunkWords {
		w1 := w0 + maskedChunkWords
		if w1 > words {
			w1 = words
		}
		m.blocks, m.full, m.ops = compileWords(buf[:0], mask[w0:w1], w0, n)
		clo, chi := MinPlusHopsBlocks(dst, nh, src, add, hop, &m, rec, base)
		ops += m.ops
		if clo < chi {
			if lo > clo {
				lo = clo
			}
			hi = chi
		}
	}
	return lo, hi, ops
}

// MinPlusTileMasked is MinPlusTile with per-pivot compiled frontier masks:
// pivot p's sweep is restricted to masks[p] unless a full sweep is forced —
// because the pivot has no mask (masks[p] == nil: dense frontier past the
// density cutover, or a ship-all row whose change extent is unknown),
// because the destination row's own change extent is unknown (dstFull), or
// because the destination's distance *to* the pivot changed since the last
// convergence (rec bit owners[p] set — the add operand moved, so unmasked
// columns may improve too). rec is the destination row's frontier and is
// updated as columns improve, so improvements applied by earlier pivots in
// the tile feed later pivots' full/masked decisions exactly as the untiled
// sequence would.
//
// Returns the changed window, total relax operations (full-width for full
// sweeps, visited columns for masked ones — the LogP charge), and the
// masked-visit subtotal (telemetry: how much work the masks let through).
func MinPlusTileMasked(dst []graph.Dist, nh []int32, arena []graph.Dist, stride int, offs, owners []int32, masks []*BlockMask, rec Bitset, dstFull bool) (lo, hi int, ops, maskedOps int64) {
	n := len(dst)
	lo, hi = n, 0
	for pi, off := range offs {
		owner := int(owners[pi])
		add := dst[owner]
		if add == graph.InfDist {
			continue
		}
		src := arena[int(off)*stride : int(off)*stride+n]
		m := masks[pi]
		var clo, chi int
		if dstFull || m == nil || (rec != nil && rec.Get(owner)) {
			clo, chi = MinPlusHopsRec(dst, nh, src, add, nh[owner], rec, 0)
			ops += int64(n)
		} else {
			clo, chi = MinPlusHopsBlocks(dst, nh, src, add, nh[owner], m, rec, 0)
			ops += int64(m.ops)
			maskedOps += int64(m.ops)
		}
		if clo < chi {
			if lo > clo {
				lo = clo
			}
			if hi < chi {
				hi = chi
			}
		}
	}
	return lo, hi, ops, maskedOps
}
