package kernel

import (
	"math/rand"
	"testing"

	"anytime/internal/graph"
)

// fullMask returns a mask with every bit < n set — a masked sweep under it
// must behave exactly like the full sweep.
func fullMask(n int) Bitset {
	b := NewBitset(n)
	b.SetRange(0, n)
	return b
}

// compiled returns mask compiled for sweep width n.
func compiled(mask Bitset, n int) *BlockMask {
	var m BlockMask
	m.Compile(nil, mask, n)
	return &m
}

func TestMinPlusHopsRecMatchesFullAndRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(150)
		base := rng.Intn(8)
		dst := randomRow(rng, n, 0.2)
		src := randomRow(rng, n, 0.3)
		nh := make([]int32, n)
		add := graph.Dist(rng.Intn(400))

		wantDst := append([]graph.Dist(nil), dst...)
		wantNH := append([]int32(nil), nh...)
		wlo, whi := MinPlusHops(wantDst, wantNH, src, add, 5)

		rec := NewBitset(base + n)
		lo, hi := MinPlusHopsRec(dst, nh, src, add, 5, rec, base)
		if lo != wlo || hi != whi {
			t.Fatalf("trial %d: window (%d,%d), want (%d,%d)", trial, lo, hi, wlo, whi)
		}
		for i := range dst {
			if dst[i] != wantDst[i] || nh[i] != wantNH[i] {
				t.Fatalf("trial %d: index %d diverges", trial, i)
			}
		}
		// nil rec degrades to the plain kernel without panicking.
		lo2, hi2 := MinPlusHopsRec(dst, nh, src, add, 5, nil, 0)
		if lo2 < hi2 {
			t.Fatalf("trial %d: second pass improved again (%d,%d)", trial, lo2, hi2)
		}
	}
}

// MinPlusHopsRec records the convex hull of the changed columns — every
// improved column must have its bit set (soundness: masks are supersets of
// the true change set), bits outside the returned window must stay clear,
// and the hull must be tight at both ends.
func TestMinPlusHopsRecWindowBits(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(150)
		base := rng.Intn(8)
		orig := randomRow(rng, n, 0.2)
		src := randomRow(rng, n, 0.3)
		dst := append([]graph.Dist(nil), orig...)
		nh := make([]int32, n)
		add := graph.Dist(rng.Intn(400))

		rec := NewBitset(base + n)
		lo, hi := MinPlusHopsRec(dst, nh, src, add, 5, rec, base)
		for i := 0; i < n; i++ {
			improved := dst[i] != orig[i]
			inWindow := i >= lo && i < hi
			if improved && !rec.Get(base+i) {
				t.Fatalf("trial %d: column %d improved but rec bit clear", trial, i)
			}
			if rec.Get(base+i) != inWindow {
				t.Fatalf("trial %d: rec bit %d = %v but in-window = %v",
					trial, base+i, rec.Get(base+i), inWindow)
			}
		}
		if lo < hi && (dst[lo] == orig[lo] || dst[hi-1] == orig[hi-1]) {
			t.Fatalf("trial %d: window (%d,%d) not tight", trial, lo, hi)
		}
		for i := 0; i < base; i++ {
			if rec.Get(i) {
				t.Fatalf("trial %d: bit %d below base set", trial, i)
			}
		}
	}
}

func TestMinPlusHopsMaskedFullMaskMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		dst := randomRow(rng, n, 0.2)
		src := randomRow(rng, n, 0.3)
		nh := make([]int32, n)
		for i := range nh {
			nh[i] = int32(rng.Intn(n))
		}
		add := graph.Dist(rng.Intn(400))

		wantDst := append([]graph.Dist(nil), dst...)
		wantNH := append([]int32(nil), nh...)
		wlo, whi := MinPlusHops(wantDst, wantNH, src, add, 3)

		lo, hi, ops := MinPlusHopsMasked(dst, nh, src, add, 3, fullMask(n), nil, 0)
		if lo != wlo || hi != whi {
			t.Fatalf("trial %d: window (%d,%d), want (%d,%d)", trial, lo, hi, wlo, whi)
		}
		if ops != n {
			t.Fatalf("trial %d: ops %d, want %d (full mask visits everything)", trial, ops, n)
		}
		for i := range dst {
			if dst[i] != wantDst[i] || nh[i] != wantNH[i] {
				t.Fatalf("trial %d: index %d diverges", trial, i)
			}
		}
	}
}

// TestMinPlusHopsMaskedSoundSkip builds the situation the engine relies on:
// dst is at a fixpoint w.r.t. src (no composition improves), then src is
// perturbed at a few columns with the perturbation recorded in a mask. A
// masked sweep must then match a full sweep bit-for-bit.
func TestMinPlusHopsMaskedSoundSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 300; trial++ {
		n := 8 + rng.Intn(200)
		src := randomRow(rng, n, 0.3)
		add := graph.Dist(1 + rng.Intn(100))
		// Fixpoint dst: exactly the min-plus closure through src.
		dst := make([]graph.Dist, n)
		nh := make([]int32, n)
		for i := range dst {
			dst[i] = graph.Dist(rng.Intn(2000))
			if src[i] != graph.InfDist && add+src[i] < dst[i] {
				dst[i] = add + src[i]
			}
		}
		// Perturb: lower a few src columns, mask records them.
		mask := NewBitset(n)
		k := 1 + rng.Intn(5)
		for j := 0; j < k; j++ {
			c := rng.Intn(n)
			src[c] = graph.Dist(rng.Intn(50))
			mask.Set(c)
		}
		// Over-approximation is allowed: add noise bits to the mask.
		for j := 0; j < rng.Intn(4); j++ {
			mask.Set(rng.Intn(n))
		}

		wantDst := append([]graph.Dist(nil), dst...)
		wantNH := append([]int32(nil), nh...)
		wlo, whi := MinPlusHops(wantDst, wantNH, src, add, 7)

		rec := NewBitset(n)
		lo, hi, ops := MinPlusHopsMasked(dst, nh, src, add, 7, mask, rec, 0)
		if lo != wlo || hi != whi {
			t.Fatalf("trial %d: window (%d,%d), want (%d,%d)", trial, lo, hi, wlo, whi)
		}
		if ops > mask.OnesCount() {
			t.Fatalf("trial %d: visited %d > mask popcount %d", trial, ops, mask.OnesCount())
		}
		for i := range dst {
			if dst[i] != wantDst[i] {
				t.Fatalf("trial %d: dst[%d] = %d, want %d", trial, i, dst[i], wantDst[i])
			}
			if nh[i] != wantNH[i] {
				t.Fatalf("trial %d: nh[%d] = %d, want %d", trial, i, nh[i], wantNH[i])
			}
			if rec.Get(i) && wlo > i {
				t.Fatalf("trial %d: rec bit %d below changed window %d", trial, i, wlo)
			}
		}
	}
}

// The masked sweep compares unsigned, like every dense body: an
// add + src[t] past InfDist must not wrap to a negative int32 and "improve".
func TestMinPlusHopsMaskedComparesUnsigned(t *testing.T) {
	inf := graph.InfDist
	src := []graph.Dist{1<<30 + 7, 3}
	const add = 1<<30 + 9
	want := []graph.Dist{inf, 5}
	wlo, whi := MinPlusHops(want, make([]int32, 2), src, add, 1)

	dst := []graph.Dist{inf, 5}
	lo, hi, ops := MinPlusHopsMasked(dst, make([]int32, 2), src, add, 1, fullMask(2), nil, 0)
	if dst[0] != want[0] || dst[1] != want[1] || lo != wlo || hi != whi || ops != 2 {
		t.Fatalf("masked sweep: dst %v window (%d,%d) ops %d, want dst %v window (%d,%d) ops 2", dst, lo, hi, ops, want, wlo, whi)
	}
}

func TestMinPlusHopsMaskedDoesNotAllocate(t *testing.T) {
	const n = 3000
	dst, nh, src := make([]graph.Dist, n), make([]int32, n), make([]graph.Dist, n)
	mask, rec := NewBitset(n), NewBitset(n)
	for i := 0; i < n; i += 3 {
		mask.Set(i)
	}
	if a := testing.AllocsPerRun(20, func() { MinPlusHopsMasked(dst, nh, src, 1, 2, mask, rec, 0) }); a != 0 {
		t.Fatalf("MinPlusHopsMasked allocates %v times per call", a)
	}
}

// TestBlockMaskCompile pins the compiled form the vector body relies on: the
// blocks ascend, carry exactly the mask's bits below the width, the whole
// blocks end at or before it (a vector load there stays inside the row),
// only the last block may be partial, the visit count is the bit count,
// and compiling into a non-empty arena leaves its earlier content alone.
func TestBlockMaskCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(300)
		mask := fuzzMask([]byte{byte(trial)}, n, uint8(trial))
		prefix := []uint32{7, 8, 9}
		var m BlockMask
		arena := m.Compile(append([]uint32(nil), prefix...), mask, n)
		for i, b := range prefix {
			if arena[i] != b {
				t.Fatalf("trial %d: arena word %d overwritten", trial, i)
			}
		}
		got := NewBitset(n + 8)
		prev := -8
		for i, b := range m.blocks {
			col := int(b>>5) &^ 7
			if col <= prev || b&0xff == 0 {
				t.Fatalf("trial %d: block %d (column %d, lanes %#x) after column %d", trial, i, col, b&0xff, prev)
			}
			if whole := i < m.full; whole != (col+8 <= n) || (!whole && i != len(m.blocks)-1) {
				t.Fatalf("trial %d n %d: block %d at column %d counted whole=%v", trial, n, i, col, whole)
			}
			prev = col
			for lane := 0; lane < 8; lane++ {
				if b>>uint(lane)&1 != 0 {
					got.Set(col + lane)
				}
			}
		}
		ops := 0
		for c := 0; c < n+8; c++ {
			want := c < n && mask.Get(c)
			if want {
				ops++
			}
			if got.Get(c) != want {
				t.Fatalf("trial %d n %d: column %d compiled %v, mask %v", trial, n, c, got.Get(c), want)
			}
		}
		if m.Ops() != ops {
			t.Fatalf("trial %d: Ops %d, want %d", trial, m.Ops(), ops)
		}
	}
}

// peelMasked is the reference masked sweep: every set mask bit below the
// overlap width, in ascending order, one column at a time.
func peelMasked(dst []graph.Dist, nh []int32, src []graph.Dist, add graph.Dist, hop int32, mask, rec Bitset, base int) (lo, hi, ops int) {
	n := min(len(dst), len(src))
	lo = n
	for t := 0; t < n && t>>6 < len(mask); t++ {
		if !mask.Get(t) {
			continue
		}
		ops++
		if nd := uint32(add) + uint32(src[t]); nd < uint32(dst[t]) {
			dst[t], nh[t] = graph.Dist(nd), hop
			if rec != nil {
				rec.Set(base + t)
			}
			lo, hi = min(lo, t), t+1
		}
	}
	return lo, hi, ops
}

// fuzzMask sets bits over width+70 columns (so some lie at or past the
// sweep width) at one of five densities: a single bit, about 1 %, 12 %,
// 25 % or every bit.
func fuzzMask(raw []byte, width int, density uint8) Bitset {
	m := NewBitset(width + 70)
	bitsTotal := width + 70
	seed := int64(density)
	for _, b := range raw {
		seed = seed*131 + int64(b)
	}
	rng := rand.New(rand.NewSource(seed))
	switch density % 5 {
	case 0:
		m.Set(rng.Intn(bitsTotal))
	case 4:
		m.SetRange(0, bitsTotal)
	default:
		p := []float64{0, 0.01, 0.12, 0.25}[density%5]
		for t := 0; t < bitsTotal; t++ {
			if rng.Float64() < p {
				m.Set(t)
			}
		}
	}
	return m
}

// FuzzMinPlusHopsMasked holds the selected block body (AVX2 where the
// machine has it) and the scalar block body to the reference peel: same
// dst, nh, rec bits, window and visited count, and nothing written outside
// the relaxed overlap. Widths cover every n mod 8; rec is nil or offset by
// base 0, 64, 128 or 5 (which the vector body hands to the scalar one).
func FuzzMinPlusHopsMasked(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	adds := []int32{0, 1, 3, 1 << 20, 1<<30 + 9, graph.InfDist - 1}
	for n := 0; n <= 300; n += 7 {
		raw := make([]byte, 1+rng.Intn(64))
		rng.Read(raw)
		f.Add(raw, uint16(n), uint8(n), int8(n%7-3), adds[n%len(adds)], uint8(n), uint8(n/7), n%2 == 0)
	}
	f.Fuzz(func(t *testing.T, raw []byte, n uint16, off uint8, srcDelta int8, add int32, density, baseSel uint8, sparse bool) {
		c := newCase(raw, n, off, srcDelta, add, sparse)
		mask := fuzzMask(raw, len(c.dst), density)
		base := []int{0, 64, 128, 5, -1}[baseSel%5]
		newRec := func() Bitset {
			if base < 0 {
				return nil
			}
			return NewBitset(base + len(c.dst) + 64)
		}
		type run struct {
			dstBack, nhBack []int32
			rec             Bitset
			lo, hi, ops     int
		}
		start := func() run {
			return run{append([]int32(nil), c.dstBack...), append([]int32(nil), c.nhBack...), newRec(), 0, 0, 0}
		}
		at, w := c.at, c.overlap
		view := func(r *run) ([]graph.Dist, []int32) {
			return r.dstBack[at : at+len(c.dst)], r.nhBack[at : at+len(c.dst)]
		}
		var m BlockMask
		m.Compile(nil, mask, w)

		want := start()
		d, h := view(&want)
		want.lo, want.hi, want.ops = peelMasked(d, h, c.src, c.add, 7, mask, want.rec, max(base, 0))

		scalar := start()
		d, h = view(&scalar)
		scalar.lo, scalar.hi = minPlusBlocksGeneric(d[:w], h[:w], c.src[:w], m.blocks, c.add, 7, scalar.rec, max(base, 0))
		scalar.ops = m.Ops()

		oneShot := start()
		d, h = view(&oneShot)
		oneShot.lo, oneShot.hi, oneShot.ops = MinPlusHopsMasked(d, h, c.src, c.add, 7, mask, oneShot.rec, max(base, 0))

		compiled := start()
		d, h = view(&compiled)
		compiled.lo, compiled.hi = MinPlusHopsBlocks(d, h, c.src, c.add, 7, &m, compiled.rec, max(base, 0))
		compiled.ops = m.Ops()

		for name, got := range map[string]run{"scalar body": scalar, "MinPlusHopsMasked": oneShot, "MinPlusHopsBlocks": compiled} {
			if got.lo != want.lo || got.hi != want.hi || got.ops != want.ops {
				t.Fatalf("%s, width %d base %d: window (%d,%d) ops %d, want (%d,%d) ops %d", name, w, base, got.lo, got.hi, got.ops, want.lo, want.hi, want.ops)
			}
			sameBacking(t, name+" dst", got.dstBack, want.dstBack)
			sameBacking(t, name+" nh", got.nhBack, want.nhBack)
			for i := range want.rec {
				if got.rec[i] != want.rec[i] {
					t.Fatalf("%s, width %d base %d: rec word %d = %#x, want %#x", name, w, base, i, got.rec[i], want.rec[i])
				}
			}
		}
	})
}

func TestMinPlusTileMaskedMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 120; trial++ {
		n := 8 + rng.Intn(120)
		rows := 2 + rng.Intn(6)
		stride := n + rng.Intn(8)
		arena := make([]graph.Dist, rows*stride)
		for i := range arena {
			if rng.Float64() < 0.3 {
				arena[i] = graph.InfDist
			} else {
				arena[i] = graph.Dist(rng.Intn(1000))
			}
		}
		offs := make([]int32, rows)
		owners := make([]int32, rows)
		for i := range offs {
			offs[i] = int32(i)
			owners[i] = int32(rng.Intn(n))
		}
		dst := randomRow(rng, n, 0.2)
		nh := make([]int32, n)

		wantDst := append([]graph.Dist(nil), dst...)
		wantNH := append([]int32(nil), nh...)
		wlo, whi, wops := MinPlusTile(wantDst, wantNH, arena, stride, offs, owners)

		// Full masks (or forced-full dispatch) must reproduce the unmasked
		// tile exactly, including the changed window.
		masks := make([]*BlockMask, rows)
		mode := trial % 3
		for i := range masks {
			switch mode {
			case 0:
				masks[i] = compiled(fullMask(n), n)
			case 1:
				masks[i] = nil // per-pivot full fallback
			}
		}
		dstFull := mode == 2
		if dstFull {
			for i := range masks {
				masks[i] = compiled(NewBitset(n), n) // empty masks, overridden by dstFull
			}
		}
		rec := NewBitset(n)
		lo, hi, ops, maskedOps := MinPlusTileMasked(dst, nh, arena, stride, offs, owners, masks, rec, dstFull)
		if lo != wlo || hi != whi {
			t.Fatalf("trial %d mode %d: window (%d,%d), want (%d,%d)", trial, mode, lo, hi, wlo, whi)
		}
		if mode != 0 && maskedOps != 0 {
			t.Fatalf("trial %d mode %d: maskedOps %d on a full dispatch", trial, mode, maskedOps)
		}
		if mode != 0 && ops != wops {
			t.Fatalf("trial %d mode %d: ops %d, want %d", trial, mode, ops, wops)
		}
		for i := range dst {
			if dst[i] != wantDst[i] || nh[i] != wantNH[i] {
				t.Fatalf("trial %d mode %d: index %d diverges", trial, mode, i)
			}
		}
	}
}

// TestMinPlusTileMaskedAddChanged pins the dispatch rule that makes masked
// tiles sound when earlier pivots improve the destination's distance *to* a
// later pivot: once rec carries the owner bit, the later pivot must fall
// back to a full sweep even though its own mask is sparse.
func TestMinPlusTileMaskedAddChanged(t *testing.T) {
	inf := graph.InfDist
	n := 6
	stride := n
	// Pivot 0 (owner column 1) lowers dst[2] dramatically; pivot 1 is owned
	// by column 2, so its add operand changed mid-tile. Its mask is empty —
	// a masked sweep would skip everything and miss the improvement at
	// column 4 that the full pass finds.
	arena := []graph.Dist{
		inf, inf, 1, inf, inf, inf, // pivot 0 row
		inf, inf, inf, inf, 2, inf, // pivot 1 row
	}
	offs := []int32{0, 1}
	owners := []int32{1, 2}
	dst := []graph.Dist{0, 3, 50, 50, 50, 50}
	nh := []int32{0, 1, -1, -1, -1, -1}

	wantDst := append([]graph.Dist(nil), dst...)
	wantNH := append([]int32(nil), nh...)
	MinPlusTile(wantDst, wantNH, arena, stride, offs, owners)
	if wantDst[4] != 6 { // 3 (to col1) + 1 (to col2) + 2
		t.Fatalf("oracle wrong: dst[4] = %d, want 6", wantDst[4])
	}

	masks := []*BlockMask{compiled(fullMask(n), n), compiled(NewBitset(n), n)} // pivot 1 mask empty
	rec := NewBitset(n)
	MinPlusTileMasked(dst, nh, arena, stride, offs, owners, masks, rec, false)
	for i := range dst {
		if dst[i] != wantDst[i] || nh[i] != wantNH[i] {
			t.Fatalf("index %d: got (%d,%d), want (%d,%d)", i, dst[i], nh[i], wantDst[i], wantNH[i])
		}
	}
	if !rec.Get(2) || !rec.Get(4) {
		t.Fatalf("rec missing improved columns: %v", rec)
	}
}
