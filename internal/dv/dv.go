// Package dv implements the distance-vector (DV) state each processor
// maintains in the anytime-anywhere engine: one row per locally owned
// vertex holding current shortest-distance upper bounds to every vertex of
// the (growing) graph. Each row owns its storage; the paper's
// amortized-doubling column extension for dynamic vertex additions is
// kept as a per-row capacity (the matrix stride) that doubles when column
// growth outruns it.
// Dirty tracking ensures only *updated* boundary DVs are shipped during
// recombination.
package dv

import (
	"fmt"
	"math"

	"anytime/internal/graph"
	"anytime/internal/kernel"
)

// Row is the distance vector of one vertex: D[t] is the best known
// distance from the row's owner to global vertex t (InfDist = none known).
// Rows hold distances only; a shortest path is recovered from converged
// distances by walking tight edges (core.Engine.Path).
//
// D and F hold the matrix's width and have the matrix stride's capacity,
// so column growth within the stride fills them in place. A row keeps its
// storage when it is removed from a matrix; no other row's storage
// overlaps it.
type Row struct {
	Owner int32
	D     []graph.Dist
	// Dirty marks the row as changed since it was last shipped to
	// neighboring processors.
	Dirty bool

	// F is the row's dirty frontier: bit t set means D[t] changed since the
	// last clean global convergence. The masked min-plus kernels consult it
	// to skip provably non-improving columns (see internal/kernel/masked.go)
	// and record into it as they relax. FAll marks the whole row changed
	// with unknown extent — fresh, migrated, restored, or reset rows — and
	// forces full sweeps both when the row pivots and when it is relaxed.
	// Unlike the pending ship window, the frontier survives ClearPending/
	// ClearDirty: it resets only at a clean global convergence
	// (ClearFrontier), because that is the fixpoint the masking soundness
	// argument is anchored to. Every bit at or above the row width, up to
	// F's capacity, is zero (storage starts zeroed and Set is only called
	// on valid columns), so width growth copies or reslices whole words.
	F    kernel.Bitset
	FAll bool

	// pendLo/pendHi delimit the half-open window of columns changed since
	// the row was last shipped; pendAll forces a full-row ship when the
	// extent of the pending changes is unknown (fresh, migrated, restored,
	// or topology-disturbed rows). Maintained by MarkChanged/MarkShipAll,
	// consumed by ShipDelta, reset by ClearPending.
	pendLo, pendHi int32
	pendAll        bool

	// staleFrom is the first column that may have changed since the
	// snapshot aggregates were last refreshed (cleanAgg: none). The zero
	// value marks the whole row stale, so fresh, restored and rebuilt rows
	// aggregate from scratch. pre[k] is the aggregate state over columns
	// [0, 64k) and agg the state over the whole row; see Aggregates.
	staleFrom int32
	pre       []Agg
	agg       Agg

	mx *Matrix // the matrix the row is attached to, or nil
}

// Agg is the snapshot aggregate of a row prefix: over the finite entries
// D[t], t != Owner, their sum, the sequential float sum of 1/D[t], their
// count and their maximum (0 when there are none).
type Agg struct {
	Sum   int64
	Harm  float64
	Reach int32
	Ecc   graph.Dist
}

// cleanAgg is the staleFrom value of a row whose aggregates are current.
const cleanAgg = math.MaxInt32

// Aggregates returns the row's snapshot aggregate and the number of cells
// it read to bring it up to date. Only the columns from the last 64-column
// boundary at or below the stale-from watermark onwards are rescanned,
// resuming from the prefix state stored there; the scan visits columns in
// ascending order, so Harm is bit-identical to a sequential pass over the
// whole row. Columns appended by growth are InfDist and change no
// aggregate, so growth alone rescans nothing. Not safe for concurrent use
// with itself or with writers of the row.
func (r *Row) Aggregates() (Agg, int) {
	if r.staleFrom == cleanAgg {
		return r.agg, 0
	}
	k := min(int(r.staleFrom)>>6, len(r.pre)-1)
	var a Agg
	if k >= 0 {
		a = r.pre[k]
	} else {
		k = 0
	}
	r.pre = r.pre[:k]
	sum, harm, reach, ecc := a.Sum, a.Harm, a.Reach, a.Ecc
	owner := int(r.Owner)
	for c := k << 6; c < len(r.D); c += 64 {
		r.pre = append(r.pre, Agg{sum, harm, reach, ecc})
		end := min(c+64, len(r.D))
		for t := c; t < end; t++ {
			d := r.D[t]
			if d == graph.InfDist || t == owner {
				continue
			}
			sum += int64(d)
			harm += 1 / float64(d)
			reach++
			if d > ecc {
				ecc = d
			}
		}
	}
	r.agg = Agg{sum, harm, reach, ecc}
	r.staleFrom = cleanAgg
	return r.agg, len(r.D) - k<<6
}

// Relax lowers D[t] to d if d is an improvement, marking the row dirty
// and recording t in its frontier. Reports whether an update happened.
func (r *Row) Relax(t int32, d graph.Dist) bool {
	if d < r.D[t] {
		r.D[t] = d
		if r.F != nil {
			r.F.Set(int(t))
		}
		r.MarkChanged(int(t), int(t)+1)
		return true
	}
	return false
}

// MarkChanged records that columns [lo, hi) changed since the last ship,
// marking the row dirty, widening the pending delta window and lowering
// the aggregates' stale-from watermark to lo.
func (r *Row) MarkChanged(lo, hi int) {
	if lo >= hi {
		return
	}
	r.Dirty = true
	if int32(lo) < r.staleFrom {
		r.staleFrom = int32(lo)
	}
	if r.pendLo >= r.pendHi {
		r.pendLo, r.pendHi = int32(lo), int32(hi)
		return
	}
	if int32(lo) < r.pendLo {
		r.pendLo = int32(lo)
	}
	if int32(hi) > r.pendHi {
		r.pendHi = int32(hi)
	}
}

// MarkShipAll marks the row dirty with unknown change extent, forcing the
// next ship to carry the full row. Used for rows whose receivers may never
// have seen any version of them: fresh rows, migrated rows, rows disturbed
// by topology changes, and rows restored from a pre-delta checkpoint.
func (r *Row) MarkShipAll() {
	r.Dirty = true
	r.pendAll = true
	r.staleFrom = 0
	// Unknown change extent also invalidates the frontier: receivers and
	// masked sweeps must treat every column as potentially changed.
	r.FAll = true
}

// MarkShipFull forces the next ship to carry the full row while keeping
// the frontier intact. For rows whose receiver set may have grown (an
// edge-add endpoint now bordering a part that never saw the row) but whose
// every change went through a recorded relax path: new receivers need the
// full values, yet the masking skip rule stays sound for them too — it is
// anchored to the last clean convergence, a global fixpoint property that
// does not depend on which versions a receiver has seen.
func (r *Row) MarkShipFull() {
	r.Dirty = true
	r.pendAll = true
}

// ClearFrontier resets the row's dirty frontier. Called only at a clean
// global convergence, the fixpoint that re-anchors the masked kernels'
// skip rule.
func (r *Row) ClearFrontier() {
	for i := range r.F {
		r.F[i] = 0
	}
	r.FAll = false
}

// ClearPending resets the pending delta window after the row's snapshot
// has been shipped. The dirty mark clears separately — at the end of the
// relax phase, unless the row changed again.
func (r *Row) ClearPending() {
	r.pendLo, r.pendHi = 0, 0
	r.pendAll = false
}

// ClearDirty clears the dirty mark together with the pending window (the
// row's content is fully propagated).
func (r *Row) ClearDirty() {
	r.Dirty = false
	r.ClearPending()
}

// PendingState exposes the raw pending-window fields for checkpointing.
func (r *Row) PendingState() (all bool, lo, hi int32) {
	return r.pendAll, r.pendLo, r.pendHi
}

// SetPendingState restores the raw pending-window fields from a
// checkpoint.
func (r *Row) SetPendingState(all bool, lo, hi int32) {
	r.pendAll, r.pendLo, r.pendHi = all, lo, hi
}

// Matrix is the per-processor DV store: the rows in slot order and an
// index from owner to slot. Every row owns its storage. stride (>= cols)
// is the column capacity all rows share: column extension first fills the
// slack [cols, stride) of each row in place, and re-allocates the rows
// with a doubled stride only when the slack runs out — the paper's
// amortized-doubling O(n+k) resize, with element copies tracked in
// ResizeCopies.
type Matrix struct {
	cols   int
	stride int
	rows   []*Row
	index  map[int32]int // global vertex ID -> position in rows
	// ResizeCopies counts element copies performed by column-extension
	// reallocations (the paper's O(n+k) amortized DV-resize cost term).
	ResizeCopies int64
}

// NewMatrix creates an empty matrix whose rows span `cols` global vertices.
func NewMatrix(cols int) *Matrix {
	return &Matrix{cols: cols, stride: max(cols, 1), index: make(map[int32]int)}
}

// Cols returns the current logical row width (number of global vertices).
func (m *Matrix) Cols() int { return m.cols }

// Len returns the number of rows (locally owned vertices).
func (m *Matrix) Len() int { return len(m.rows) }

// Rows returns the rows in slot order. The slice is owned by the matrix;
// callers must not reorder it.
func (m *Matrix) Rows() []*Row { return m.rows }

// Has reports whether a row for global vertex v exists.
func (m *Matrix) Has(v int32) bool {
	_, ok := m.index[v]
	return ok
}

// Row returns the row of global vertex v, or nil if not owned here.
func (m *Matrix) Row(v int32) *Row {
	if i, ok := m.index[v]; ok {
		return m.rows[i]
	}
	return nil
}

// fillInf sets every entry of d to InfDist.
func fillInf(d []graph.Dist) {
	for i := range d {
		d[i] = graph.InfDist
	}
}

// storage allocates one row's distances (all InfDist) and frontier words
// (clear) at the matrix width, each with the stride's capacity.
func (m *Matrix) storage() ([]graph.Dist, kernel.Bitset) {
	d := make([]graph.Dist, m.cols, m.stride)
	fillInf(d)
	return d, make(kernel.Bitset, kernel.BitsetWords(m.cols), kernel.BitsetWords(m.stride))
}

// attach appends r at the next slot.
func (m *Matrix) attach(r *Row) {
	r.mx = m
	m.index[r.Owner] = len(m.rows)
	m.rows = append(m.rows, r)
}

// AddRow inserts a fresh row for global vertex v: all InfDist except
// D[v] = 0. Panics if the row exists or v is outside the current width.
func (m *Matrix) AddRow(v int32) *Row {
	if _, ok := m.index[v]; ok {
		panic(fmt.Sprintf("dv: duplicate row for vertex %d", v))
	}
	if int(v) >= m.cols {
		panic(fmt.Sprintf("dv: vertex %d outside width %d", v, m.cols))
	}
	r := &Row{Owner: v}
	r.D, r.F = m.storage()
	r.D[v] = 0
	m.attach(r)
	r.MarkShipAll() // fresh content: first ship carries the whole row
	return r
}

// RemoveRow deletes the row of v (repartitioning migrates rows between
// processors; vertex deletion drops them) and moves the last row into its
// slot. The removed row keeps its storage and values; no other row's
// storage overlaps it. Returns the removed row or nil.
func (m *Matrix) RemoveRow(v int32) *Row {
	i, ok := m.index[v]
	if !ok {
		return nil
	}
	r := m.rows[i]
	r.mx = nil
	last := len(m.rows) - 1
	m.rows[i] = m.rows[last]
	m.index[m.rows[i].Owner] = i
	m.rows[last] = nil
	m.rows = m.rows[:last]
	delete(m.index, v)
	return r
}

// AdoptRow installs a detached row (migrated from another processor) at
// the next slot and marks its snapshot aggregates for a full rescan. A row
// whose width is the matrix's and whose capacity covers the stride keeps
// its storage; any other is copied into fresh storage, cut or padded with
// InfDist to the matrix's width. Panics if the row is still attached to a
// matrix or a row for its owner already exists.
func (m *Matrix) AdoptRow(r *Row) {
	if _, ok := m.index[r.Owner]; ok {
		panic(fmt.Sprintf("dv: duplicate adopted row for vertex %d", r.Owner))
	}
	if r.mx != nil {
		panic(fmt.Sprintf("dv: adopting row %d still attached to a matrix", r.Owner))
	}
	words := kernel.BitsetWords(m.cols)
	if len(r.D) != m.cols || cap(r.D) < m.stride || len(r.F) != words || cap(r.F) < kernel.BitsetWords(m.stride) {
		d, f := m.storage()
		copy(d, r.D)
		copy(f, r.F)
		if tail := uint(m.cols & 63); tail != 0 {
			// keep bits at/above cols zero even if the adopted row was wider
			f[words-1] &= 1<<tail - 1
		}
		r.D, r.F = d, f
	}
	r.staleFrom = 0
	m.attach(r)
}

// ExtendCols widens every row by k new columns initialized to InfDist.
// While the new width fits the stride each row is filled in place (zero
// copies); otherwise the stride doubles and every row moves (the paper
// assumes vector size doubles on resize, for an O(n+k) amortized cost,
// which is tracked in ResizeCopies). The moved rows take consecutive
// windows of one distance slab and one frontier slab, in slot order, so
// the Fig. 3 row test, which reads two columns of every row per improving
// edge, walks adjacent memory instead of one allocation per row.
func (m *Matrix) ExtendCols(k int) {
	if k <= 0 {
		return
	}
	old := m.cols
	m.cols += k
	words := kernel.BitsetWords(m.cols)
	if m.cols <= m.stride {
		for _, r := range m.rows {
			r.D = r.D[:m.cols]
			fillInf(r.D[old:])
			r.F = r.F[:words]
		}
		return
	}
	m.stride = max(2*m.stride, m.cols)
	ws := kernel.BitsetWords(m.stride)
	d := make([]graph.Dist, len(m.rows)*m.stride)
	fw := make([]uint64, len(m.rows)*ws)
	for i, r := range m.rows {
		nd := d[i*m.stride : i*m.stride+m.cols : (i+1)*m.stride]
		copy(nd, r.D)
		fillInf(nd[old:])
		// frontier bits at/above the old width are zero, so whole words move
		nf := kernel.Bitset(fw[i*ws : i*ws+words : (i+1)*ws])
		copy(nf, r.F)
		r.D, r.F = nd, nf
		m.ResizeCopies += int64(old)
	}
}

// ClearDirty resets all dirty marks and pending windows (after shipping).
func (m *Matrix) ClearDirty() {
	for _, r := range m.rows {
		r.ClearDirty()
	}
}

// ClearFrontiers resets every row's dirty frontier. Called at a clean
// global convergence — the fixpoint that re-anchors the masked kernels'
// skip rule.
func (m *Matrix) ClearFrontiers() {
	for _, r := range m.rows {
		r.ClearFrontier()
	}
}

// FrontierStats scans the rows' frontiers and returns the number of nonzero
// frontier words and total set bits across all rows; FAll rows count as
// fully set. Feeds the per-step FrontierWords/FrontierDensity telemetry.
func (m *Matrix) FrontierStats() (words int, bits int64) {
	for _, r := range m.rows {
		if r.FAll {
			words += len(r.F)
			bits += int64(m.cols)
			continue
		}
		words += r.F.NonzeroWords()
		bits += int64(r.F.OnesCount())
	}
	return words, bits
}

// Delta is the wire form of one boundary-row update: the columns
// [Lo, Lo+len(D)) of Owner's distance vector that changed since the row
// was last shipped. Deltas carry distances only: the dirty and pending
// marks are the sender's bookkeeping.
// A full-row ship is simply a delta with Lo == 0 spanning the whole row.
//
// F, when non-nil, is a snapshot of the sender row's change frontier over
// the window: bit t set means column Lo+t changed since the last clean
// global convergence. Lo is always 64-aligned when F travels, so F is a
// verbatim word-slice of the sender's frontier and bit positions line up
// with window offsets. Receivers whose own distance to Owner is likewise
// unchanged may soundly restrict their relax sweep to the set bits (see
// internal/kernel/masked.go); F == nil means the change extent is unknown
// (ship-all rows, masking disabled) and forces a full-window sweep.
type Delta struct {
	Owner int32
	Lo    int32
	D     []graph.Dist
	F     kernel.Bitset
}

// WireBytes is the accounted on-wire size of the delta: 4 bytes per
// distance, 8 per frontier word, plus a 16-byte header (owner, lo,
// distance count, frontier word count).
func (d *Delta) WireBytes() int { return 4*len(d.D) + 8*len(d.F) + 16 }

// frontierWindow snapshots the row's frontier words covering columns
// [lo, hi), or nil when the change extent is unknown. lo must be
// 64-aligned so the word slice's bit positions line up with window
// offsets. The words are copied: in-process exchange hands the Delta to
// receivers that read it while the sender's frontier keeps accumulating.
func (r *Row) frontierWindow(lo, hi int) kernel.Bitset {
	if r.FAll || len(r.F) == 0 {
		return nil
	}
	wlo, whi := lo>>6, (hi+63)>>6
	if whi > len(r.F) {
		whi = len(r.F)
	}
	if wlo >= whi {
		return nil
	}
	return append(kernel.Bitset(nil), r.F[wlo:whi]...)
}

// ShipDelta snapshots the row's pending-change window as a Delta. Rows
// whose change extent is unknown (MarkShipAll) — and, defensively, dirty
// rows with an empty window — snapshot the full row. The window start is
// rounded down to a 64-column boundary (at most 63 extra unchanged
// columns) so the attached frontier words slice straight out of the row's
// bitmask. The pending window is not cleared here; the caller does that
// via ClearPending once the delta is actually sent.
func (r *Row) ShipDelta() *Delta {
	if r.pendAll || r.pendLo >= r.pendHi {
		return r.FullDelta()
	}
	lo, hi := int(r.pendLo), int(r.pendHi)
	if hi > len(r.D) {
		hi = len(r.D) // defensive: widths only grow, but never read past the row
	}
	lo &^= 63
	return &Delta{Owner: r.Owner, Lo: int32(lo), D: append([]graph.Dist(nil), r.D[lo:hi]...), F: r.frontierWindow(lo, hi)}
}

// FullDelta snapshots the entire row as a Delta (fresh or migrated rows,
// and the ship-all-boundary ablation).
func (r *Row) FullDelta() *Delta {
	return &Delta{Owner: r.Owner, D: append([]graph.Dist(nil), r.D...), F: r.frontierWindow(0, len(r.D))}
}
