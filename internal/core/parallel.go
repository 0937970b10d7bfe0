package core

import (
	"sync"

	"anytime/internal/dv"
	"anytime/internal/graph"
	"anytime/internal/kernel"
	"anytime/internal/obs"
)

// This file is the per-processor worker pool of the RC phase: the paper's
// testbed is a hybrid MPI+OpenMP cluster, so each simulated processor
// (goroutine) fans its relax work across opts.Workers worker goroutines —
// the second parallelism layer next to the P-way processor parallelism of
// cluster.Machine.Parallel.
//
// The refine pass is tiled blocked Floyd–Warshall (Venkataraman et al.,
// JEA 2003): pivots are grouped into tiles of TileSize consecutive
// table rows (slot order), and each round splits into
//
//   - phase A (diagonal): the tile's own rows are refined through the
//     tile's active pivots, one pivot at a time in index order. This runs
//     serially — inside the phaser's advance critical section, while the
//     other workers are parked — because tile rows both read and write
//     each other.
//   - phase B (remainder): every row outside the tile is relaxed through
//     the round's active pivots, kernel.GroupK of them per grouped pass
//     (kernel.Tile), reading each pivot row's distances in place. Rows
//     are partitioned into contiguous per-worker blocks, one writer per row;
//     tile rows are read-only during this phase, so no barrier is needed
//     within a round.
//
// That is one barrier per *tile round* instead of the per-pivot barrier a
// naive parallel Floyd–Warshall needs — O(n/B) rounds instead of O(n).
//
// Parallelization preserves the serial semantics exactly, so for a fixed
// tile size, converged distances and every intermediate step are
// bit-identical for any worker count:
//
//   - External relaxation partitions the local rows into contiguous
//     blocks, one writer per row. Deltas are processed in chunks (chunk
//     outer, rows inner, the chunk's deltas in delivery order within a
//     row), which keeps each row's relaxation sequence identical to the
//     serial inbox walk while the chunk's payloads stay cache-resident.
//   - The round schedule (which tile, which pivots) is computed only by
//     the phaser leader in the advance critical section, so every worker
//     agrees on it even though `changed` evolves during the pass; phase B
//     applies the round's pivots in the same index order for every row no
//     matter which worker owns the row.
//   - stepOps moves to per-worker scratch merged after the join (phase-A
//     ops accumulate under the phaser lock); `changed` is written at
//     per-worker disjoint row indices.
//
// Across tile sizes the converged state is likewise identical — tiling
// reorders which pivot contributions a row sees first within a step, but
// the converged distances are the unique exact APSP solution — which the
// tile-invariance tests pin.

// phaser is a cyclic barrier for the worker pool: await parks until all n
// workers arrive; the last arrival runs advance before the group is
// released. The mutex ordering makes each worker's writes before await
// visible to every worker after it.
type phaser struct {
	mu    sync.Mutex
	cond  sync.Cond
	n     int
	count int
	gen   uint64
}

func newPhaser(n int) *phaser {
	ph := &phaser{n: n}
	ph.cond.L = &ph.mu
	return ph
}

func (ph *phaser) await(advance func()) {
	ph.mu.Lock()
	ph.count++
	if ph.count == ph.n {
		if advance != nil {
			advance()
		}
		ph.count = 0
		ph.gen++
		ph.cond.Broadcast()
		ph.mu.Unlock()
		return
	}
	gen := ph.gen
	for gen == ph.gen {
		ph.cond.Wait()
	}
	ph.mu.Unlock()
}

// splitBlocks returns w+1 boundaries splitting [0, n) into w near-equal
// contiguous blocks.
func splitBlocks(n, w int) []int {
	b := make([]int, w+1)
	for k := 0; k <= w; k++ {
		b[k] = k * n / w
	}
	return b
}

// refineRound is one tile round's schedule, computed by the phaser leader
// (or inline when w == 1): the pivot tile's row range and the active
// pivots inside it, as table row indices plus their owners' global IDs.
// tLo < 0 signals that the pass is over.
type refineRound struct {
	tLo, tHi int
	offs     []int32 // active pivot row indices (table slots, ascending)
	owners   []int32 // owners[i] = global vertex of pivot offs[i]
	// masks[i] is pivot offs[i]'s compiled frontier, or nil to force a full
	// sweep through that pivot (masking disabled, ship-all row, or frontier
	// density past the cutover). Decided and compiled by the leader in
	// advanceRound, then shared read-only by every phase-B worker.
	masks []*kernel.BlockMask
}

// maskDensityCut is the frontier-density cutover: a pivot whose frontier
// covers more than 1/maskDensityCut of the row width is swept with the
// full-row BCE'd kernel instead — dense early passes keep the streaming
// loop, sparse late passes skip untouched columns entirely.
const maskDensityCut = 4 // mask only below 25% density

// pivotMask is the masked-versus-full rule of a refinement pivot, shared by
// the sweeps and the exact-state charge: it returns the frontier mask to
// compile for pivot row pr at the table width, or nil when every sweep
// through it must be full (masking off, unknown change extent, or density
// above the cutover).
func (p *Proc) pivotMask(pr *dv.Row) kernel.Bitset {
	if p.maskOff || pr.FAll {
		return nil
	}
	if pr.F.OnesCount()*maskDensityCut > p.table.Cols() {
		return nil
	}
	return pr.F
}

// growBlockMasks returns ms extended to at least n entries.
func growBlockMasks(ms []kernel.BlockMask, n int) []kernel.BlockMask {
	if len(ms) < n {
		ms = append(ms, make([]kernel.BlockMask, n-len(ms))...)
	}
	return ms
}

// deltaMask is the masked-versus-full rule of a received delta, shared by
// the sweeps and the exact-state charge: it returns the shipped frontier
// words to compile for br and the width every local row sweeps it at, or
// nil when every sweep through it must be full — masking is off, the
// sender's change extent was unknown (no words), the window is not
// 64-aligned (bit positions would not line up) or starts past the table,
// or the window's frontier is past the density cutover (streaming the full
// window is cheaper).
func (p *Proc) deltaMask(br *dv.Delta) (kernel.Bitset, int) {
	cols := p.table.Cols()
	off := int(br.Lo)
	if p.maskOff || br.F == nil || off&63 != 0 || off >= cols || br.F.OnesCount()*maskDensityCut > len(br.D) {
		return nil, 0
	}
	return br.F, min(len(br.D), cols-off)
}

// extMasks compiles, once per relax phase, the masks deltaMask grants the
// received deltas, each for the width every local row sweeps it at, into
// per-processor scratch. The per-row decision — whether the receiving
// row's own distance to the sender moved — stays in the inner loop,
// exactly like the pivot-tile kernel's rec.Get(owner) check.
func (p *Proc) extMasks(ext []*dv.Delta) []*kernel.BlockMask {
	if p.maskOff {
		return nil
	}
	p.extBlocks = growBlockMasks(p.extBlocks, len(ext))
	if cap(p.extMaskRefs) < len(ext) {
		p.extMaskRefs = make([]*kernel.BlockMask, len(ext))
	}
	ms := p.extMaskRefs[:len(ext)]
	if cap(p.extWidths) < len(ext) {
		p.extWidths = make([]int, len(ext))
	}
	widths := p.extWidths[:len(ext)]
	// First pass: decide, and bound the blocks (at most one per mask bit).
	need, any := 0, false
	for i, br := range ext {
		ms[i] = nil
		f, w := p.deltaMask(br)
		if f == nil {
			continue
		}
		ms[i], widths[i] = &p.extBlocks[i], w
		need += min(f.OnesCount(), kernel.MaxBlocks(w))
		any = true
	}
	if !any {
		return nil
	}
	arena := p.extArena[:0]
	if cap(arena) < need {
		arena = make([]uint32, 0, need) // one allocation; the compiles never regrow it
	}
	for i, m := range ms {
		if m != nil {
			arena = m.Compile(arena, ext[i].F, widths[i])
		}
	}
	p.extArena = arena
	return ms
}

// relaxStep runs one processor's relax phase — external-delta relaxation
// followed (optionally) by tiled local refinement — across w worker
// goroutines, returning the total relax ops. w == 1 runs inline with no
// pool. tile is the pivot-tile edge. On an exact state (p.exact) no sweep
// runs: the phase's charge is computed in closed form (exact.go).
func (p *Proc) relaxStep(ext []*dv.Delta, refine bool, w, tile int) int64 {
	if p.exact != nil {
		ops, masked := p.exactCharge(ext)
		p.stepMaskedOps = masked
		return ops
	}
	n := p.table.Len()
	if w > n {
		w = n
	}
	if tile < 1 {
		tile = 1
	}
	p.stepMaskedOps = 0
	extM := p.extMasks(ext)
	p.tile.Reserve(p.table.Cols())
	if w <= 1 {
		ops, em := p.relaxExternalBlock(ext, extM, 0, n, &p.tile)
		p.stepMaskedOps += em
		if refine {
			ops += p.refineTiled(tile)
		}
		return ops
	}
	if len(p.tiles) < w-1 {
		p.tiles = make([]kernel.Tile, w-1)
	}
	for k := range p.tiles[:w-1] {
		p.tiles[k].Reserve(p.table.Cols())
	}
	bounds := splitBlocks(n, w)
	ops := make([]int64, w)
	masked := make([]int64, w)
	ph := newPhaser(w)
	round := &p.round
	var (
		from         int
		phaseA       int64 // leader-run advance ops, serialized by the phaser lock
		phaseAMasked int64
	)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lo, hi := bounds[k], bounds[k+1]
			t := &p.tile
			if k > 0 {
				t = &p.tiles[k-1]
			}
			o, mk := p.relaxExternalBlock(ext, extM, lo, hi, t)
			if refine {
				for {
					// Barrier: the remainder phase reads rows of every
					// block, so all prior-round (and external-relax) writes
					// must be complete; the leader refines the next diagonal
					// tile and publishes the round schedule.
					ph.await(func() {
						ao, am := p.advanceRound(round, from, tile)
						phaseA += ao
						phaseAMasked += am
						if round.tLo >= 0 {
							from = round.tHi
						}
					})
					if round.tLo < 0 {
						break
					}
					bo, bm := p.phaseB(round, lo, hi, t)
					o += bo
					mk += bm
				}
			}
			ops[k] = o
			masked[k] = mk
		}(k)
	}
	wg.Wait()
	total := phaseA
	p.stepMaskedOps += phaseAMasked
	for k, o := range ops {
		total += o
		p.stepMaskedOps += masked[k]
	}
	return total
}

// relaxExternalBlock relaxes local rows [lo, hi) against every received
// boundary delta, in delivery order: for a delta of row b covering columns
// [b.Lo, b.Lo+len(b.D)),
//
//	D(u, t) = min(D(u, t), D(u, b) + D_b(t)).
//
// Deltas are walked in chunks, rows inner: a chunk is prepared once as a
// kernel.Tile, whose payloads stay in L1 across the row sweep, and each row
// sweeps the chunk's full-sweep deltas kernel.GroupK at a time in grouped
// passes. Within a row, chunk order preserves the global delivery order
// exactly.
//
// masks (from extMasks; may be nil) carries the deltas' compiled frontier
// words: when delta b has one and row u's own distance to b is unchanged
// since the last convergence (u.F bit b clear, no FAll), the sweep visits
// only b's changed columns — the skipped ones hold their convergence-time
// values, so the composition through an unchanged u.D[b] is provably
// non-improving (see internal/kernel/masked.go). Such a delta runs alone,
// after the deltas before it (kernel.Group.RelaxMasked). Improvements are
// recorded into u's frontier either way — the exact (sparser) form of
// OR-ing the received window in. Returns total ops and the masked-visit
// subtotal.
func (p *Proc) relaxExternalBlock(ext []*dv.Delta, masks []*kernel.BlockMask, lo, hi int, t *kernel.Tile) (int64, int64) {
	rows := p.table.Rows()
	cols := p.table.Cols()
	var ops, maskedOps int64
	for base := 0; base < len(ext); {
		t.Reset()
		for ; base < len(ext); base++ {
			br := ext[base]
			if int(br.Lo) >= cols {
				continue
			}
			var m *kernel.BlockMask
			if masks != nil {
				m = masks[base]
			}
			if !t.Push(br.D, int(br.Lo), br.Owner, m) {
				break
			}
		}
		if t.Len() == 0 {
			continue
		}
		t.Prepare(cols)
		for i := lo; i < hi; i++ {
			u := rows[i]
			rec := u.F
			if p.maskOff {
				rec = nil
			}
			clo, chi, o, m := t.Relax(u.D, rec, u.FAll)
			ops += o
			maskedOps += m
			if clo < chi {
				u.MarkChanged(clo, chi)
				p.changed[i] = true
			}
		}
	}
	return ops, maskedOps
}

// nextPivot returns the first row index >= from that local refinement must
// pivot — a row that changed this step or entered it with un-propagated
// (dirty) content — or -1 when the pass is over. Single forward scan, as in
// the serial pass.
func (p *Proc) nextPivot(from int) int {
	for wi := from; wi < len(p.changed); wi++ {
		if p.changed[wi] || p.pivot[wi] {
			return wi
		}
	}
	return -1
}

// advanceRound computes the next tile round starting the pivot scan at
// `from` (a tile boundary) and runs phase A: the diagonal refinement of
// the tile's own rows through its active pivots, one pivot at a time in
// index order, re-checking activity at visit time exactly like the serial
// forward scan. Rows activated behind the scan cursor are picked up by the
// next refine pass, as before. Each pivot's mask decision is made here —
// once, serially — and its frontier compiled for the diagonal pass, then
// compiled again for phase B and published in r.masks. Returns
// the phase-A op count and its masked-visit subtotal; r.tLo is set to -1
// when no active pivot remains.
func (p *Proc) advanceRound(r *refineRound, from, tile int) (int64, int64) {
	wi := p.nextPivot(from)
	if wi < 0 {
		r.tLo = -1
		return 0, 0
	}
	var tm obs.Span
	if p.tr != nil {
		tm = obs.Span{Kind: obs.KindRCRefineTile, Proc: int32(p.id), Step: p.curStep, Wall: p.tr.Now()}
	}
	n := p.table.Len()
	r.tLo = (wi / tile) * tile // tiles align to a fixed grid
	r.tHi = r.tLo + tile
	if r.tHi > n {
		r.tHi = n
	}
	// Round scratch is sized once for the widest tile a table this long
	// has, before any pointer into the compiled masks is taken.
	if size := min(tile, n); cap(r.offs) < size {
		r.offs = make([]int32, 0, size)
		r.owners = make([]int32, 0, size)
		r.masks = make([]*kernel.BlockMask, 0, size)
		p.pivotBlocks = growBlockMasks(p.pivotBlocks, size)
	}
	r.offs = r.offs[:0]
	r.owners = r.owners[:0]
	r.masks = r.masks[:0]
	rows := p.table.Rows()
	cols := p.table.Cols()
	arena := p.pivotArena[:0]
	var ops, masked int64
	for w := wi; w < r.tHi; w++ {
		if !p.changed[w] && !p.pivot[w] {
			continue
		}
		pr := rows[w]
		var mask *kernel.BlockMask
		if f := p.pivotMask(pr); f != nil {
			if need := cap(r.offs) * kernel.MaxBlocks(cols); cap(arena) < need {
				// a whole round's worst case, on the first mask only: blocks
				// compiled into the old arena stay valid where they are
				arena = make([]uint32, 0, need)
			}
			mask = &p.pivotBlocks[len(r.offs)]
			arena = mask.Compile(arena, f, cols)
		}
		for ui := r.tLo; ui < r.tHi; ui++ {
			if ui == w {
				continue
			}
			u := rows[ui]
			d := u.D[pr.Owner]
			if d == graph.InfDist {
				continue
			}
			var clo, chi int
			if m := kernel.SweepMask(mask, u.F, int(pr.Owner), u.FAll); m != nil {
				clo, chi = kernel.MinPlusBlocks(u.D, pr.D, d, m, u.F, 0)
				ops += int64(m.Ops())
				masked += int64(m.Ops())
			} else {
				rec := u.F
				if p.maskOff {
					rec = nil
				}
				clo, chi = kernel.MinPlusRec(u.D, pr.D, d, rec, 0)
				ops += int64(len(pr.D))
			}
			if clo < chi {
				u.MarkChanged(clo, chi)
				p.changed[ui] = true
			}
		}
		r.offs = append(r.offs, int32(w))
		r.owners = append(r.owners, pr.Owner)
		r.masks = append(r.masks, mask)
	}
	// Phase B sweeps each pivot's frontier as it stands after the whole
	// diagonal pass: a later pivot of the tile can still improve an earlier
	// pivot's row and so add bits to its frontier. The diagonal masks are
	// done with, so the recompiled ones take over the arena.
	arena = arena[:0]
	for i, m := range r.masks {
		if m != nil {
			arena = m.Compile(arena, rows[r.offs[i]].F, cols)
		}
	}
	p.pivotArena = arena
	if p.tr != nil {
		// Tile-round spans are wall-only: the LogP charge for the refine
		// work lands at relax-phase granularity, not per round.
		tm.WallDur = p.tr.Now() - tm.Wall
		tm.Value = int64(len(r.offs))
		p.tr.Record(tm)
	}
	return ops, masked
}

// phaseB relaxes the rows [lo, hi) outside the round's tile through the
// round's active pivots (Floyd–Warshall-style):
//
//	D(u, t) = min(D(u, t), D(u, w) + D_w(t))  for each pivot w in order.
//
// The pivot rows' distances are read in place and never written here,
// so workers only need the one barrier that opened the round. The
// round's pivots are taken a kernel.Tile at a time, rows inner, so a tile's
// pivot rows stay in L1 across the rows; each row still sees the round's
// pivots in order.
func (p *Proc) phaseB(r *refineRound, lo, hi int, t *kernel.Tile) (int64, int64) {
	rows := p.table.Rows()
	cols := p.table.Cols()
	var ops, masked int64
	for pi := 0; pi < len(r.offs); {
		t.Reset()
		for ; pi < len(r.offs); pi++ {
			var m *kernel.BlockMask
			if !p.maskOff {
				m = r.masks[pi]
			}
			if !t.Push(rows[r.offs[pi]].D[:cols], 0, r.owners[pi], m) {
				break
			}
		}
		t.Prepare(cols)
		for ui := lo; ui < hi; ui++ {
			if ui >= r.tLo && ui < r.tHi {
				continue
			}
			u := rows[ui]
			rec := u.F
			if p.maskOff {
				rec = nil
			}
			clo, chi, o, m := t.Relax(u.D, rec, u.FAll)
			ops += o
			masked += m
			if clo < chi {
				u.MarkChanged(clo, chi)
				p.changed[ui] = true
			}
		}
	}
	return ops, masked
}

// refineTiled is the w == 1 pass: the identical tile-round schedule run
// inline, so worker counts cannot change results.
func (p *Proc) refineTiled(tile int) int64 {
	r := &p.round
	var ops int64
	from := 0
	for {
		ao, am := p.advanceRound(r, from, tile)
		ops += ao
		p.stepMaskedOps += am
		if r.tLo < 0 {
			return ops
		}
		bo, bm := p.phaseB(r, 0, p.table.Len(), &p.tile)
		ops += bo
		p.stepMaskedOps += bm
		from = r.tHi
	}
}
