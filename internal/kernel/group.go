package kernel

import (
	"math/bits"

	"anytime/internal/graph"
)

// This file holds the multi-pivot form of the full-row sweep: one
// destination row relaxed through a run of consecutive pivots in a single
// pass (register blocking, as in blocked Floyd–Warshall — Venkataraman et
// al., JEA 2003). Near convergence almost every composition fails, so the
// one-pivot loop spends its time proving non-improvement one pivot at a
// time, reloading dst and redoing the compare for every pivot. The grouped
// body loads dst once per 32 columns, keeps the running unsigned minimum of
// add_j + src_j over the group, and does one compare against dst; only a
// 32-column block that improves replays the pivots in order.
//
// The result is bit-identical to relaxing the pivots one at a time in push
// order — dst, nh, every pivot's changed window, its rec bits and the op
// count — because each column is independent of the others once every
// pivot's add and hop are known:
//
//   - Adds and hops by recurrence. One at a time, pivot j reads add_j =
//     dst[b_j] and hop_j = nh[b_j] after pivots < j have swept (b_j is its
//     owner's column). Relax computes both before the sweep: column b_j
//     starts at dst[b_j], and pivot i < j lowers it iff b_j is in pivot i's
//     window and add_i + src_i[b_j] < the value so far (unsigned). A pivot
//     whose add is still InfDist afterwards is skipped and charges no ops,
//     exactly as the one-pivot loop skips it.
//   - Windows. A pivot may cover only part of dst (a delta window; they
//     start 64-aligned and end wherever the sender's changes did). The
//     group sweeps the union of the windows, reading a pivot that does not
//     span it from a padded copy with InfDist outside its window — an
//     InfDist entry never improves a column — so every column still sees
//     the pivots that cover it in push order.
//   - Frontier bits. rec gets each pivot's own changed window, not the
//     group's hull, as the per-pivot MinPlusHopsRec calls would set them.
//
// When the union would cost more than half as many lanes again as the
// windows themselves, and for a single pivot, the group relaxes its pivots
// one at a time instead, reading each add at the pivot's turn.
//
// A Group is prepared once for many destination rows of one width — every
// local row against one chunk of received deltas, every remainder row
// against one chunk of pivots — so what does not depend on the row is done
// once: the cut and padded pivot rows and each pivot's entry at the other
// pivots' owner columns (the recurrence's operands). Per row it is the
// recurrence, one sweep and the windows.

// GroupK is the most pivots one grouped sweep relaxes a row through.
const GroupK = 8

// groupState is what the grouped bodies read and write per pivot of a
// sweep: add and hop in, the changed window [lo, hi) (relative to the swept
// range, lo starting at the range width) out. minplus_amd64.s addresses it
// by offset: add at 0, hop at 32, lo at 64, hi at 128.
type groupState struct {
	add [GroupK]graph.Dist
	hop [GroupK]int32
	lo  [GroupK]int
	hi  [GroupK]int
}

// Group is up to GroupK pivots, prepared to relax destination rows of one
// width: Reset, Push each pivot in the order they must apply, Prepare once,
// then Relax or RelaxMasked per row. The zero value is an empty group.
type Group struct {
	k, n    int
	p       [GroupK]groupPivot
	all     uint32 // one bit per pushed pivot
	grouped bool   // sweep the union [u0, u1) at once, else one at a time
	ready   bool   // the grouped sweep's operands are prepared
	u0, u1  int
	c       [GroupK][GroupK]uint32 // c[i][j]: pivot i's entry at pivot j's owner, InfDist outside its window
	cmin    [GroupK]uint32         // cmin[j]: the least c[i][j] over i < j
	state   groupState
	first   groupSet     // the pivots with a window, which most rows apply
	set     groupSet     // a subset of them, for the rest
	pad     []graph.Dist // room for the padded pivot rows
}

// groupPivot is one pushed pivot and, after a Relax, its result for the
// row.
type groupPivot struct {
	src   []graph.Dist // src[0] lands on dst column off; cut to the width
	off   int
	row   []graph.Dist // what the grouped sweep reads from column u0 on
	ops   int          // len(src) as pushed: the pivot's charge
	owner int32        // dst column holding the distance to the pivot
	hop   int32        // nh[owner] at the pivot's turn
	add   uint32
	lo    int // changed window in dst columns, lo >= hi when none
	hi    int
}

// groupSet is the pivots one grouped sweep reads, in push order: their
// rows, the same rows as pointers for the vector body, and their push
// indices.
type groupSet struct {
	k   int
	cov uint32
	cut [GroupK][]graph.Dist
	ptr [GroupK]*int32
	idx [GroupK]int
}

// build fills s with the pivots in cov.
func (s *groupSet) build(ps []groupPivot, cov uint32) {
	s.k, s.cov = 0, cov
	for m := cov; m != 0; m &= m - 1 {
		j := bits.TrailingZeros32(m) & (GroupK - 1)
		row := ps[j].row
		s.cut[s.k], s.ptr[s.k], s.idx[s.k] = row, &row[0], j
		s.k++
	}
}

// Reset empties the group.
func (g *Group) Reset() { g.k = 0 }

// Len returns the number of pivots pushed since the last Reset.
func (g *Group) Len() int { return g.k }

// Push appends a pivot whose row src covers dst columns [off, off+len(src))
// and whose owner's distance sits in dst column owner; the group must be
// prepared again before the next Relax. off must be below the width.
func (g *Group) Push(src []graph.Dist, off int, owner int32) {
	p := &g.p[g.k]
	p.src, p.off, p.ops, p.owner = src, off, len(src), owner
	g.k++
}

// Prepare readies the pushed pivots for destination rows of width n: the
// part of a pivot row past column n is not swept.
func (g *Group) Prepare(n int) {
	g.n = n
	g.all = uint32(1)<<g.k - 1
	ps := g.p[:g.k]
	u0, u1, sum, cov := n, 0, 0, uint32(0)
	for j := range ps {
		pj := &ps[j]
		if len(pj.src) > n-pj.off {
			pj.src = pj.src[:n-pj.off]
		}
		if len(pj.src) > 0 {
			u0, u1, sum = min(u0, pj.off), max(u1, pj.off+len(pj.src)), sum+len(pj.src)
			cov |= 1 << j
		}
	}
	w := u1 - u0
	g.grouped = bits.OnesCount32(cov) > 1 && 2*w*bits.OnesCount32(cov) <= 3*sum
	g.u0, g.u1, g.first.cov, g.ready = u0, u1, cov, false
}

// prepareSweep prepares the grouped sweep, on the first row that needs it: a
// chunk whose pivots all run masked never does.
func (g *Group) prepareSweep() {
	g.ready = true
	ps := g.p[:g.k]
	u0, w := g.u0, g.u1-g.u0
	for j := range ps {
		pj := &ps[j]
		g.cmin[j] = uint32(graph.InfDist)
		for i := range ps[:j] {
			pi := &ps[i]
			g.c[i][j] = uint32(graph.InfDist)
			if t := int(pj.owner) - pi.off; t >= 0 && t < len(pi.src) {
				g.c[i][j] = uint32(pi.src[t])
			}
			g.cmin[j] = min(g.cmin[j], g.c[i][j])
		}
		pj.row = pj.src
		if len(pj.src) > 0 && (pj.off != u0 || len(pj.src) != w) {
			if cap(g.pad) < len(ps)*w {
				g.pad = make([]graph.Dist, len(ps)*w)
			}
			row := g.pad[j*w : (j+1)*w]
			for t := range row {
				row[t] = graph.InfDist
			}
			copy(row[pj.off-u0:], pj.src)
			pj.row = row
		}
	}
	g.first.build(ps, g.first.cov)
}

// Relax relaxes dst (at least the prepared width long) through the pivots,
// bit-identically to calling
//
//	MinPlusHopsRec(dst[off:], nh[off:], src, dst[owner], nh[owner], rec, off)
//
// for each in push order and skipping those whose distance is InfDist at
// their turn. It returns the hull [lo, hi) of the pivots' changed windows
// (lo >= hi when nothing improved) and the ops charged: len(src) per
// applied pivot.
func (g *Group) Relax(dst []graph.Dist, nh []int32, rec Bitset) (lo, hi int, ops int64) {
	return g.relax(dst, nh, rec, g.all)
}

// relax is Relax over the pivots whose bits are set in use.
func (g *Group) relax(dst []graph.Dist, nh []int32, rec Bitset, use uint32) (lo, hi int, ops int64) {
	n := g.n
	dst, nh = dst[:n], nh[:n]
	lo, hi = n, 0
	if !g.grouped {
		for m := use; m != 0; m &= m - 1 {
			pj := &g.p[bits.TrailingZeros32(m)&(GroupK-1)]
			pj.lo, pj.hi = n, 0
			add := dst[pj.owner]
			if add == graph.InfDist {
				continue
			}
			ops += int64(pj.ops)
			if clo, chi := MinPlusHops(dst[pj.off:], nh[pj.off:], pj.src, add, nh[pj.owner]); clo < chi {
				pj.lo, pj.hi = pj.off+clo, pj.off+chi
				if rec != nil {
					rec.SetRange(pj.lo, pj.hi)
				}
				lo, hi = min(lo, pj.lo), max(hi, pj.hi)
			}
		}
		return lo, hi, ops
	}
	if !g.ready {
		g.prepareSweep()
	}
	// Adds and hops by recurrence over the applied pivots before each. The
	// owner columns are all read first: they are cache misses more often
	// than not, and independent. amin, the least add applied so far, skips
	// the pivots no earlier one can reach: amin + cmin[j] bounds every
	// add_i + c[i][j] from below.
	for m := use; m != 0; m &= m - 1 {
		pj := &g.p[bits.TrailingZeros32(m)&(GroupK-1)]
		pj.add, pj.hop = uint32(dst[pj.owner]), nh[pj.owner]
		pj.lo, pj.hi = n, 0
	}
	var applied uint32
	amin := uint32(graph.InfDist)
	for m := use; m != 0; m &= m - 1 {
		j := bits.TrailingZeros32(m) & (GroupK - 1)
		pj := &g.p[j]
		a, h := pj.add, pj.hop
		if amin+g.cmin[j] < a {
			for mi := applied; mi != 0; mi &= mi - 1 {
				i := bits.TrailingZeros32(mi) & (GroupK - 1)
				if nd := g.p[i].add + g.c[i][j]; nd < a {
					a, h = nd, g.p[i].hop
				}
			}
			pj.add, pj.hop = a, h
		}
		if graph.Dist(a) != graph.InfDist {
			applied |= 1 << j
			ops += int64(pj.ops)
			amin = min(amin, a)
		}
	}
	set := &g.first
	if cov := set.cov & applied; cov != set.cov {
		if cov == 0 {
			return lo, hi, ops
		}
		set = &g.set
		set.build(g.p[:], cov)
	}
	g.sweep(dst, nh, set)
	for m := set.cov; m != 0; m &= m - 1 {
		pj := &g.p[bits.TrailingZeros32(m)&(GroupK-1)]
		if pj.lo < pj.hi {
			if rec != nil {
				rec.SetRange(pj.lo, pj.hi)
			}
			lo, hi = min(lo, pj.lo), max(hi, pj.hi)
		}
	}
	return lo, hi, ops
}

// sweep relaxes dst columns [u0, u1) through the pivots of set and folds
// each one's changes into its window.
func (g *Group) sweep(dst []graph.Dist, nh []int32, set *groupSet) {
	s0, s1 := g.u0, g.u1
	st := &g.state
	for c := 0; c < set.k; c++ {
		pj := &g.p[set.idx[c]]
		st.add[c], st.hop[c] = graph.Dist(pj.add), pj.hop
		st.lo[c], st.hi[c] = s1-s0, 0
	}
	if set.k == 1 {
		st.lo[0], st.hi[0] = MinPlusHops(dst[s0:s1], nh[s0:s1], set.cut[0], st.add[0], st.hop[0])
	} else {
		groupBody(dst[s0:s1], nh[s0:s1], set, st)
	}
	for c := 0; c < set.k; c++ {
		if st.lo[c] < st.hi[c] {
			pj := &g.p[set.idx[c]]
			pj.lo, pj.hi = s0+st.lo[c], s0+st.hi[c]
		}
	}
}

// RelaxMasked relaxes dst through all the pivots in push order with
// per-pivot compiled frontier masks: pivot j's sweep is restricted to
// masks[j] unless a full sweep is forced — because the pivot has no mask
// (masks nil or masks[j] nil: dense frontier past the density cutover, or a
// ship-all row whose change extent is unknown), because the destination
// row's own change extent is unknown (dstFull), or because the
// destination's distance *to* the pivot changed since the last convergence
// (rec bit owner set — the add operand moved, so unmasked columns may
// improve too). rec is the destination row's frontier and is updated as
// columns improve, so improvements applied by earlier pivots feed later
// pivots' full/masked decisions exactly as the one-at-a-time sequence
// would. A mask is compiled for the pivot's window: for column off+t it
// holds bit t.
//
// Full sweeps are grouped. A pivot joins the pending run only if its sweep
// is full whatever the run's earlier pivots do: no mask, dstFull, or its
// rec bit already set — bits are never cleared here. Any other pivot first
// relaxes the pending run, then decides at its turn and runs alone.
//
// Returns the changed window, total relax operations (len(src) for full
// sweeps, visited columns for masked ones — the LogP charge), and the
// masked-visit subtotal (telemetry: how much work the masks let through).
func (g *Group) RelaxMasked(dst []graph.Dist, nh []int32, masks []*BlockMask, rec Bitset, dstFull bool) (lo, hi int, ops, maskedOps int64) {
	if masks == nil || dstFull {
		lo, hi, ops = g.relax(dst, nh, rec, g.all)
		return lo, hi, ops, 0
	}
	lo, hi = g.n, 0
	var run uint32
	for j := range g.p[:g.k] {
		pj := &g.p[j]
		owner := int(pj.owner)
		if m := SweepMask(masks[j], rec, owner, false); m != nil {
			if run != 0 {
				clo, chi, o := g.relax(dst, nh, rec, run)
				lo, hi, ops, run = min(lo, clo), max(hi, chi), ops+o, 0
				m = SweepMask(m, rec, owner, false) // the run may have set the owner bit
			}
			if m != nil {
				add := dst[owner]
				if add == graph.InfDist {
					continue
				}
				if clo, chi := MinPlusHopsBlocks(dst[pj.off:], nh[pj.off:], pj.src, add, nh[owner], m, rec, pj.off); clo < chi {
					lo, hi = min(lo, pj.off+clo), max(hi, pj.off+chi)
				}
				ops += int64(m.ops)
				maskedOps += int64(m.ops)
				continue
			}
		}
		run |= 1 << j
	}
	if run != 0 {
		clo, chi, o := g.relax(dst, nh, rec, run)
		lo, hi, ops = min(lo, clo), max(hi, chi), ops+o
	}
	return lo, hi, ops, maskedOps
}

// SweepMask is the one masked-versus-full rule of every relax sweep: a
// pivot whose distance sits in destination column owner is swept under its
// compiled mask m, which SweepMask returns, unless the sweep must be full —
// no mask, the destination row's change extent is unknown (dstFull), or its
// frontier rec has the owner bit set (the add operand moved since the last
// convergence) — when it returns nil. A nil rec has no bits set.
func SweepMask(m *BlockMask, rec Bitset, owner int, dstFull bool) *BlockMask {
	if m == nil || dstFull || (rec != nil && rec.Get(owner)) {
		return nil
	}
	return m
}

// groupGeneric relaxes columns [from, len(dst)) of dst and nh through the
// k pivots of st, whose rows srcs[j] are aligned with dst and at least as
// long: per column the unsigned minimum of add_j + src_j[t] over
// the group, and only a column it improves replays the pivots in order.
// It folds each pivot's changed columns into st's windows. This is the
// grouped body on builds without the vector one, and the n mod 8 tail of
// the vector one.
func groupGeneric(dst []graph.Dist, nh []int32, srcs *[GroupK][]graph.Dist, st *groupState, k, from int) {
	n := len(dst)
	nh = nh[:n]
	for t := from; t < n; t++ {
		d := uint32(dst[t])
		m := d
		for j := 0; j < k; j++ {
			m = min(m, uint32(st.add[j])+uint32(srcs[j][t]))
		}
		if m == d {
			continue
		}
		for j := 0; j < k; j++ {
			if nd := uint32(st.add[j]) + uint32(srcs[j][t]); nd < d {
				d = nd
				dst[t] = graph.Dist(nd)
				nh[t] = st.hop[j]
				st.lo[j] = min(st.lo[j], t)
				st.hi[j] = t + 1
			}
		}
	}
}

// TileGroups is the most Groups a Tile holds, and tileBytes the most bytes
// of pivot rows (or, for a masked pivot, of the columns its mask visits) a
// Tile opens another group for: a tile is swept over many destination
// rows, so its pivot rows should stay in L1 across them. A group always
// fills, so rows wider than L1 still share their passes.
const (
	TileGroups = 4
	tileBytes  = 32 << 10
)

// Tile is a run of consecutive pivots in up to TileGroups Groups, with their
// frontier masks, prepared once and then relaxed into destination rows one
// at a time. Runs of narrow pivots (delta windows, sparse masks) fill all
// the groups and so visit each destination row once for many pivots; full
// rows of up to 1,024 columns stop at one group, which stays in L1. The
// zero value is an empty tile.
type Tile struct {
	g      [TileGroups]Group
	m      [TileGroups][GroupK]*BlockMask
	ng     int // index of the group being filled
	bytes  int
	masked bool         // some pivot has a mask
	pad    []graph.Dist // the groups' padding, one allocation
}

// Reset empties the tile.
func (t *Tile) Reset() {
	t.ng, t.bytes, t.masked = 0, 0, false
	t.g[0].Reset()
}

// Len returns the number of pivots pushed since the last Reset.
func (t *Tile) Len() int { return t.ng*GroupK + t.g[t.ng].Len() }

// Push appends a pivot as Group.Push does, with its compiled frontier mask
// (nil: always swept in full; see Group.RelaxMasked). It reports false,
// adding nothing, when the tile is full.
func (t *Tile) Push(src []graph.Dist, off int, owner int32, mask *BlockMask) bool {
	cost := 4 * len(src)
	if mask != nil {
		cost = 4 * mask.Ops()
	}
	g := &t.g[t.ng]
	if g.Len() == GroupK {
		if t.ng+1 == TileGroups || t.bytes+cost > tileBytes {
			return false
		}
		t.ng++
		g = &t.g[t.ng]
		g.Reset()
	}
	t.m[t.ng][g.Len()] = mask
	t.masked = t.masked || mask != nil
	g.Push(src, off, owner)
	t.bytes += cost
	return true
}

// Reserve makes room for the padding of destination rows up to twice n
// wide, so that Prepare does not allocate while rows stay narrower: a
// caller reserves before a relax phase, as the rows it relaxes grow.
func (t *Tile) Reserve(n int) {
	if cap(t.pad) < TileGroups*GroupK*n {
		t.pad = make([]graph.Dist, TileGroups*GroupK*2*n)
	}
}

// Prepare readies the pushed pivots for destination rows of width n.
func (t *Tile) Prepare(n int) {
	t.Reserve(n)
	for i := range t.g[:t.ng+1] {
		t.g[i].pad = t.pad[i*GroupK*n : (i+1)*GroupK*n : (i+1)*GroupK*n]
		t.g[i].Prepare(n)
	}
}

// Relax relaxes dst through the tile's pivots in push order, as
// Group.RelaxMasked does for each group, and returns the same window and
// counts for the whole tile.
func (t *Tile) Relax(dst []graph.Dist, nh []int32, rec Bitset, dstFull bool) (lo, hi int, ops, maskedOps int64) {
	lo, hi = len(dst), 0
	for i := range t.g[:t.ng+1] {
		g := &t.g[i]
		var masks []*BlockMask
		if t.masked {
			masks = t.m[i][:g.Len()]
		}
		clo, chi, o, m := g.RelaxMasked(dst, nh, masks, rec, dstFull)
		lo, hi, ops, maskedOps = min(lo, clo), max(hi, chi), ops+o, maskedOps+m
	}
	return lo, hi, ops, maskedOps
}
