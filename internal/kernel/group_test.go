package kernel

import (
	"math/rand"
	"testing"
	"unsafe"

	"anytime/internal/graph"
)

// TestGroupStateLayout pins the offsets minplus_amd64.s addresses
// groupState by.
func TestGroupStateLayout(t *testing.T) {
	var st groupState
	got := [4]uintptr{unsafe.Offsetof(st.add), unsafe.Offsetof(st.hop), unsafe.Offsetof(st.lo), unsafe.Offsetof(st.hi)}
	if got != [4]uintptr{0, 32, 64, 128} || GroupK != 8 {
		t.Fatalf("groupState offsets %v with GroupK %d, the assembly expects [0 32 64 128] and 8", got, GroupK)
	}
}

// groupCase is one FuzzMinPlusGroup input: a guarded destination row and
// k pivots, each a row over a window of it and an owner column.
type groupCase struct {
	dstBack, nhBack []int32
	at, n           int
	srcs            [][]graph.Dist
	offs            []int
	owners          []int32
}

// groupDist draws a distance: unreachable, small, mid-range or just below
// InfDist.
func groupDist(rng *rand.Rand) graph.Dist {
	switch r := rng.Intn(20); {
	case r < 3:
		return graph.InfDist
	case r < 4:
		return graph.InfDist - 1 - graph.Dist(rng.Intn(64))
	case r < 6:
		return graph.Dist(rng.Intn(1 << 30))
	default:
		return graph.Dist(rng.Intn(1000))
	}
}

// newGroupCase derives a case from fuzz arguments. Widths are 1-300 (every
// n mod 8). shape picks the windows: full rows (some trailing past dst),
// 64-aligned delta windows, arbitrary windows, or a mix. Owners fall inside
// earlier pivots' windows with pivot entries there set low, so the add/hop
// recurrence fires; some are duplicates, and some start at InfDist so an
// earlier pivot makes them finite mid-group. With sparse set, dst is first
// lowered to the initial compositions on most columns, so whole 32-lane
// groups fail and improvements are isolated.
func newGroupCase(raw []byte, n uint16, k, shape uint8, sparse bool) *groupCase {
	seed := int64(n)<<16 | int64(k)<<8 | int64(shape)
	for _, b := range raw {
		seed = seed*131 + int64(b)
	}
	rng := rand.New(rand.NewSource(seed))
	c := &groupCase{n: 1 + int(n)%300, at: guard + int(shape>>2)%8}
	c.dstBack, _ = guarded(c.n, c.at-guard)
	c.nhBack, _ = guarded(c.n, c.at-guard)
	dst, nh := c.dstBack[c.at:c.at+c.n], c.nhBack[c.at:c.at+c.n]
	for t := range dst {
		dst[t] = groupDist(rng)
		nh[t] = int32(t)
	}
	np := 1 + int(k)%GroupK
	for j := 0; j < np; j++ {
		off, w := 0, c.n
		switch mode := int(shape) % 4; {
		case mode == 0 || (mode == 3 && rng.Intn(2) == 0):
			w += rng.Intn(3) * 5 // shipped columns may trail the local width
		case mode == 1 || mode == 3:
			off = 64 * rng.Intn((c.n+63)/64)
			w = 1 + rng.Intn(c.n-off+8)
		default:
			off = rng.Intn(c.n)
			w = rng.Intn(c.n - off + 10)
		}
		src := make([]graph.Dist, w)
		for t := range src {
			src[t] = groupDist(rng)
		}
		var owner int
		switch r := rng.Intn(6); {
		case j > 0 && r == 0:
			owner = int(c.owners[rng.Intn(j)])
		case j > 0 && r <= 2:
			// inside an earlier pivot's window, where that pivot is cheap
			i := rng.Intn(j)
			if len(c.srcs[i]) > 0 && c.offs[i] < c.n {
				tt := rng.Intn(min(len(c.srcs[i]), c.n-c.offs[i]))
				owner = c.offs[i] + tt
				c.srcs[i][tt] = graph.Dist(rng.Intn(4))
			} else {
				owner = rng.Intn(c.n)
			}
			if r == 1 {
				dst[owner] = graph.InfDist
			}
		default:
			owner = rng.Intn(c.n)
		}
		c.srcs = append(c.srcs, src)
		c.offs = append(c.offs, off)
		c.owners = append(c.owners, int32(owner))
	}
	for _, b := range c.owners {
		if rng.Intn(3) > 0 && dst[b] != graph.InfDist {
			dst[b] = graph.Dist(rng.Intn(50)) // most pivots are near
		}
	}
	if sparse {
		for j, src := range c.srcs {
			add := uint32(dst[c.owners[j]])
			for tt, v := range src {
				t := c.offs[j] + tt
				if t >= c.n || rng.Intn(64) == 0 {
					continue
				}
				if nd := add + uint32(v); nd < uint32(dst[t]) {
					dst[t] = graph.Dist(nd)
				}
			}
		}
	}
	return c
}

type groupRun struct {
	dstBack, nhBack []int32
	rec             Bitset
	lo, hi          []int // per pivot
	hull            [2]int
	ops             int64
}

func (c *groupCase) start(withRec bool) groupRun {
	r := groupRun{dstBack: append([]int32(nil), c.dstBack...), nhBack: append([]int32(nil), c.nhBack...)}
	if withRec {
		r.rec = NewBitset(c.n + 64)
	}
	return r
}

func (c *groupCase) views(r *groupRun) ([]graph.Dist, []int32) {
	return r.dstBack[c.at : c.at+c.n], r.nhBack[c.at : c.at+c.n]
}

// reference relaxes the pivots one at a time through MinPlusHopsRec, the
// whole sequence passes times; windows and ops are the last pass's.
func (c *groupCase) reference(withRec bool, passes int) groupRun {
	r := c.start(withRec)
	dst, nh := c.views(&r)
	for pass := 0; pass < passes; pass++ {
		r.hull, r.ops, r.lo, r.hi = [2]int{c.n, 0}, 0, r.lo[:0], r.hi[:0]
		for j, src := range c.srcs {
			lo, hi := c.n, 0
			if b := c.owners[j]; dst[b] != graph.InfDist {
				off := c.offs[j]
				if clo, chi := MinPlusHopsRec(dst[off:], nh[off:], src, dst[b], nh[b], r.rec, off); clo < chi {
					lo, hi = off+clo, off+chi
					r.hull = [2]int{min(r.hull[0], lo), max(r.hull[1], hi)}
				}
				r.ops += int64(len(src))
			}
			r.lo, r.hi = append(r.lo, lo), append(r.hi, hi)
		}
	}
	return r
}

// grouped relaxes the pivots as one Group, prepared once and relaxed
// passes times.
func (c *groupCase) grouped(withRec bool, passes int) groupRun {
	r := c.start(withRec)
	dst, nh := c.views(&r)
	var g Group
	for j, src := range c.srcs {
		g.Push(src, c.offs[j], c.owners[j])
	}
	g.Prepare(c.n)
	for pass := 0; pass < passes; pass++ {
		lo, hi, ops := g.Relax(dst, nh, r.rec)
		r.hull, r.ops, r.lo, r.hi = [2]int{lo, hi}, ops, r.lo[:0], r.hi[:0]
		for j := range c.srcs {
			r.lo, r.hi = append(r.lo, g.p[j].lo), append(r.hi, g.p[j].hi)
		}
	}
	return r
}

// windowsEqual compares changed windows, any empty one equal to any other.
func windowsEqual(alo, ahi, blo, bhi int) bool {
	return (alo >= ahi && blo >= bhi) || (alo == blo && ahi == bhi)
}

// FuzzMinPlusGroup holds Group.Relax on the selected body (AVX2 where the
// machine has it) and on the scalar one to the sequential one-pivot
// reference: same dst and nh (nothing written outside the row), the same
// changed window per pivot and hull, the same rec bits (or a nil rec) and
// the same ops. Some cases relax the row twice through one Prepare, as the
// engine relaxes many rows through one.
func FuzzMinPlusGroup(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 200; i++ {
		raw := make([]byte, 1+rng.Intn(16))
		rng.Read(raw)
		n := uint16(rng.Intn(300))
		if i < 64 {
			n = uint16(i * 5) // every n mod 8 at small widths
		}
		f.Add(raw, n, uint8(i), uint8(i/8), i%3 != 0, i%5 == 0)
	}
	f.Fuzz(func(t *testing.T, raw []byte, n uint16, k, shape uint8, sparse, nilRec bool) {
		c := newGroupCase(raw, n, k, shape, sparse)
		passes := 1 + int(shape>>5)%2
		want := c.reference(!nilRec, passes)
		runs := map[string]groupRun{"selected body": c.grouped(!nilRec, passes)}
		withScalarBodies(func() { runs["scalar body"] = c.grouped(!nilRec, passes) })
		for name, got := range runs {
			if !windowsEqual(got.hull[0], got.hull[1], want.hull[0], want.hull[1]) || got.ops != want.ops {
				t.Fatalf("%s, n %d, %d pivots at %v: hull %v ops %d, want %v ops %d", name, c.n, len(c.srcs), c.offs, got.hull, got.ops, want.hull, want.ops)
			}
			for j := range want.lo {
				if !windowsEqual(got.lo[j], got.hi[j], want.lo[j], want.hi[j]) {
					t.Fatalf("%s, n %d, pivot %d of %d at %d: window (%d,%d), want (%d,%d)", name, c.n, j, len(c.srcs), c.offs[j], got.lo[j], got.hi[j], want.lo[j], want.hi[j])
				}
			}
			sameBacking(t, name+" dst", got.dstBack, want.dstBack)
			sameBacking(t, name+" nh", got.nhBack, want.nhBack)
			for i := range want.rec {
				if got.rec[i] != want.rec[i] {
					t.Fatalf("%s, n %d: rec word %d = %#x, want %#x", name, c.n, i, got.rec[i], want.rec[i])
				}
			}
		}
	})
}

// TestGroupRecurrence pins the two cases the add/hop recurrence exists for:
// a later pivot whose distance an earlier one lowers (so it must relax with
// the lowered add and the earlier pivot's hop), and one whose distance is
// InfDist until an earlier pivot reaches it.
func TestGroupRecurrence(t *testing.T) {
	inf := graph.InfDist
	for _, start := range []graph.Dist{9, inf} {
		dst := []graph.Dist{0, 2, start, 50, 50, 50, 50, 50, 50, 50}
		nh := []int32{0, 1, 2, -1, -1, -1, -1, -1, -1, -1}
		p0 := []graph.Dist{inf, 0, 1, inf, inf, inf, inf, inf, inf, inf} // owner 1
		p1 := []graph.Dist{inf, inf, 0, 4, 4, 4, 4, 4, 4, 4}             // owner 2
		var g Group
		g.Push(p0, 0, 1)
		g.Push(p1, 0, 2)
		g.Prepare(len(dst))
		_, _, ops := g.Relax(dst, nh, nil)
		if dst[2] != 3 || nh[2] != 1 || dst[9] != 7 || nh[9] != 1 || ops != 20 {
			t.Fatalf("start %d: dst %v nh %v ops %d, want dst[2]=3 dst[9]=7 via hop 1, ops 20", start, dst, nh, ops)
		}
	}
}

// TestTileMatchesSequential pushes runs of 1 to 40 pivots — full rows (some
// wider than the tile's byte budget) and delta windows, half with compiled
// frontier masks — through Tiles as the
// engine does (push until full, prepare, relax the row, repeat) and holds
// the row, its frontier, the window and both op counts to the one-pivot
// sequence with the same full/masked rule.
func TestTileMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var tile Tile
	for trial := 0; trial < 300; trial++ {
		n := 8 + rng.Intn(200)
		if trial%50 == 0 {
			n = 5000 + rng.Intn(100) // rows past the tile's byte budget
		}
		np := 1 + rng.Intn(40)
		type pivot struct {
			src   []graph.Dist
			off   int
			owner int32
			mask  *BlockMask
		}
		ps := make([]pivot, np)
		for j := range ps {
			p := &ps[j]
			if rng.Intn(2) == 0 {
				p.off = 64 * rng.Intn((n+63)/64)
			}
			p.src = make([]graph.Dist, 1+rng.Intn(n-p.off))
			for t := range p.src {
				p.src[t] = groupDist(rng)
			}
			p.owner = int32(rng.Intn(n))
			if rng.Intn(2) == 0 {
				p.mask = compiled(fuzzMask([]byte{byte(trial), byte(j)}, len(p.src), uint8(rng.Intn(4))), len(p.src))
			}
		}
		dst0 := make([]graph.Dist, n)
		for t := range dst0 {
			dst0[t] = groupDist(rng)
		}
		nh0 := make([]int32, n)
		rec0 := NewBitset(n)
		for t := 0; t < n; t += 1 + rng.Intn(16) {
			rec0.Set(t)
		}
		dstFull := trial%7 == 0

		wantDst, wantNH, wantRec := append([]graph.Dist(nil), dst0...), append([]int32(nil), nh0...), append(Bitset(nil), rec0...)
		wlo, whi, wops, wmasked := n, 0, int64(0), int64(0)
		for _, p := range ps {
			add := wantDst[p.owner]
			if add == graph.InfDist {
				continue
			}
			var lo, hi int
			if p.mask != nil && !dstFull && !wantRec.Get(int(p.owner)) {
				lo, hi = MinPlusHopsBlocks(wantDst[p.off:], wantNH[p.off:], p.src, add, wantNH[p.owner], p.mask, wantRec, p.off)
				wops += int64(p.mask.Ops())
				wmasked += int64(p.mask.Ops())
			} else {
				lo, hi = MinPlusHopsRec(wantDst[p.off:], wantNH[p.off:], p.src, add, wantNH[p.owner], wantRec, p.off)
				wops += int64(len(p.src))
			}
			if lo < hi {
				wlo, whi = min(wlo, p.off+lo), max(whi, p.off+hi)
			}
		}

		dst, nh, rec := append([]graph.Dist(nil), dst0...), append([]int32(nil), nh0...), append(Bitset(nil), rec0...)
		lo, hi, ops, masked := n, 0, int64(0), int64(0)
		for j := 0; j < np; {
			tile.Reset()
			for ; j < np && tile.Push(ps[j].src, ps[j].off, ps[j].owner, ps[j].mask); j++ {
			}
			tile.Prepare(n)
			clo, chi, o, m := tile.Relax(dst, nh, rec, dstFull)
			lo, hi, ops, masked = min(lo, clo), max(hi, chi), ops+o, masked+m
		}
		if !windowsEqual(lo, hi, wlo, whi) || ops != wops || masked != wmasked {
			t.Fatalf("trial %d: window (%d,%d) ops %d masked %d, want (%d,%d) %d %d", trial, lo, hi, ops, masked, wlo, whi, wops, wmasked)
		}
		for i := range dst {
			if dst[i] != wantDst[i] || nh[i] != wantNH[i] {
				t.Fatalf("trial %d: column %d (%d,%d), want (%d,%d)", trial, i, dst[i], nh[i], wantDst[i], wantNH[i])
			}
		}
		for i := range rec {
			if rec[i] != wantRec[i] {
				t.Fatalf("trial %d: rec word %d = %#x, want %#x", trial, i, rec[i], wantRec[i])
			}
		}
	}
}

// FuzzTileCount holds Tile.Relax, on rows that no pivot improves — the
// state of a row in an exact APSP matrix —, to the per-pivot charge that
// the exact-state closed form (internal/core/exact.go) sums: nothing when
// the row's distance to the pivot's owner is InfDist, the mask's bits below
// its width (Bitset.OnesCountBelow) when SweepMask picks the mask, the
// pivot's length as pushed otherwise; and Relax leaves dst, nh and rec as
// they were. Pivots span several groups, windows are full rows (some
// trailing past dst), 64-aligned delta windows or arbitrary ones, half
// carry a compiled mask, and owners are often InfDist or have their
// frontier bit set, so every branch of the full/masked rule is taken.
func FuzzTileCount(f *testing.F) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 100; i++ {
		raw := make([]byte, 1+rng.Intn(16))
		rng.Read(raw)
		f.Add(raw, uint16(rng.Intn(300)), uint8(i), uint8(i/4), i%7 == 0, i%5 == 0)
	}
	f.Fuzz(func(t *testing.T, raw []byte, n uint16, k, shape uint8, dstFull, nilRec bool) {
		seed := int64(n)<<16 | int64(k)<<8 | int64(shape)
		for _, b := range raw {
			seed = seed*131 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))
		w := 1 + int(n)%300
		dst := make([]graph.Dist, w)
		nh := make([]int32, w)
		for c := range dst {
			dst[c] = groupDist(rng)
			nh[c] = int32(rng.Intn(w))
		}
		var rec Bitset
		if !nilRec {
			rec = NewBitset(w)
			for c := 0; c < w; c += 1 + rng.Intn(8) {
				rec.Set(c)
			}
		}
		var tile Tile
		np := 1 + int(k)%40
		for j := 0; j < np; {
			tile.Reset()
			var wantOps, wantMasked int64
			for ; j < np; j++ {
				off, sw := 0, w
				switch mode := int(shape) % 3; {
				case mode == 0:
					sw += rng.Intn(3) * 5 // shipped columns may trail the local width
				case mode == 1:
					off = 64 * rng.Intn((w+63)/64)
					sw = 1 + rng.Intn(w-off+8)
				default:
					off = rng.Intn(w)
					sw = rng.Intn(w - off + 10)
				}
				owner := int32(rng.Intn(w))
				src := make([]graph.Dist, sw)
				for c := range src {
					src[c] = groupDist(rng)
					// No improvement: add + src >= dst at every column.
					if add := dst[owner]; add != graph.InfDist && off+c < w && add+src[c] < dst[off+c] {
						src[c] = dst[off+c] - add
					}
				}
				var mask *BlockMask
				var bits Bitset
				mw := min(sw, w-off) // compiled for the width it is swept at
				if rng.Intn(2) == 0 {
					bits = fuzzMask(raw, mw, uint8(rng.Intn(5)))
					mask = compiled(bits, mw)
				}
				if !tile.Push(src, off, owner, mask) {
					break
				}
				switch {
				case dst[owner] == graph.InfDist:
				case mask != nil && !dstFull && (rec == nil || !rec.Get(int(owner))):
					wantOps += int64(bits.OnesCountBelow(mw))
					wantMasked += int64(bits.OnesCountBelow(mw))
				default:
					wantOps += int64(sw)
				}
			}
			d0, nh0, rec0 := append([]graph.Dist(nil), dst...), append([]int32(nil), nh...), append(Bitset(nil), rec...)
			tile.Prepare(w)
			lo, hi, ops, masked := tile.Relax(dst, nh, rec, dstFull)
			if lo < hi || ops != wantOps || masked != wantMasked {
				t.Fatalf("width %d, %d pivots: Relax window (%d,%d) ops %d masked %d, want %d %d", w, tile.Len(), lo, hi, ops, masked, wantOps, wantMasked)
			}
			for c := range dst {
				if dst[c] != d0[c] || nh[c] != nh0[c] {
					t.Fatalf("width %d: column %d (%d,%d), was (%d,%d)", w, c, dst[c], nh[c], d0[c], nh0[c])
				}
			}
			for i := range rec {
				if rec[i] != rec0[i] {
					t.Fatalf("width %d: rec word %d = %#x, was %#x", w, i, rec[i], rec0[i])
				}
			}
		}
	})
}
