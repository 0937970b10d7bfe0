// Package dv implements the distance-vector (DV) state each processor
// maintains in the anytime-anywhere engine: one row per locally owned
// vertex holding current shortest-distance upper bounds to every vertex of
// the (growing) graph. Rows are views into one flat row-major arena per
// processor, so the recombination refine phase streams over contiguous
// memory; the paper's amortized-doubling column extension for dynamic
// vertex additions is preserved as amortized-doubling of the arena stride.
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
// NH[t] is the distance-vector-routing next hop: the neighbor of Owner on
// the path realizing D[t] (-1 = unknown; NH[Owner] = Owner). Next hops
// enable shortest-path reconstruction across processors once the engine
// has converged.
//
// While a row is attached to a Matrix, D and NH alias the matrix arena;
// RemoveRow detaches them onto private backing so migrated rows stay valid
// after the slot is reused.
type Row struct {
	Owner int32
	D     []graph.Dist
	NH    []int32
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
	// argument is anchored to.
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

	mx *Matrix // non-nil while D/NH alias mx's arena
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

// Relax lowers D[t] to d if d is an improvement, marking the row dirty.
// The next hop for t becomes unknown. Reports whether an update happened.
func (r *Row) Relax(t int32, d graph.Dist) bool {
	return r.RelaxVia(t, d, -1)
}

// RelaxVia lowers D[t] to d if d is an improvement, recording nh as the
// next hop toward t. Reports whether an update happened.
func (r *Row) RelaxVia(t int32, d graph.Dist, nh int32) bool {
	if d < r.D[t] {
		r.D[t] = d
		r.NH[t] = nh
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

// Matrix is the per-processor DV store. All rows share one flat row-major
// arena: the row at position i views d[i*stride : i*stride+cols] (and nh
// likewise), so consecutive rows are contiguous in memory and the refine
// phase can stream pivot tiles straight out of the arena (see
// internal/kernel.MinPlusTile). stride (>= cols) is the allocated column
// capacity per row slot: column extension first fills the slack
// [cols, stride) in place and re-lays the arena with a doubled stride only
// when the slack runs out — the paper's amortized-doubling O(n+k) resize,
// with element copies tracked in ResizeCopies.
type Matrix struct {
	cols   int
	stride int
	d      []graph.Dist // len == slot capacity * stride
	nh     []int32
	// fw backs the rows' frontier bitmasks at wstride words per slot
	// (wstride = BitsetWords(stride), so in-place column extension never
	// re-lays the words). Bits at or beyond cols are kept zero — Set is
	// only ever called on valid columns and slots are zeroed on (re)use —
	// which lets relayouts and width growth copy words verbatim.
	fw      []uint64
	wstride int
	rows    []*Row
	index   map[int32]int // global vertex ID -> position in rows
	// ResizeCopies counts element copies performed by column-extension
	// reallocations (the paper's O(n+k) amortized DV-resize cost term).
	ResizeCopies int64
}

// NewMatrix creates an empty matrix whose rows span `cols` global vertices.
func NewMatrix(cols int) *Matrix {
	stride := cols
	if stride < 1 {
		stride = 1
	}
	return &Matrix{cols: cols, stride: stride, wstride: kernel.BitsetWords(stride), index: make(map[int32]int)}
}

// Cols returns the current logical row width (number of global vertices).
func (m *Matrix) Cols() int { return m.cols }

// Len returns the number of rows (locally owned vertices).
func (m *Matrix) Len() int { return len(m.rows) }

// Rows returns the rows in slot order: Rows()[i] views arena columns
// [i*stride, i*stride+cols). The slice is owned by the matrix; callers
// must not reorder it.
func (m *Matrix) Rows() []*Row { return m.rows }

// Arena exposes the flat distance arena and the row stride. The row at
// position i occupies arena[i*stride : i*stride+Cols()]. The backing array
// is invalidated by AddRow/AdoptRow/RemoveRow/ExtendCols; callers use it
// only within one relax phase.
func (m *Matrix) Arena() ([]graph.Dist, int) { return m.d, m.stride }

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

// view re-points row i's D/NH slices at its arena slot. The capacity is
// clamped to the slot so an accidental append can never bleed into the
// next row.
func (m *Matrix) view(i int) {
	base := i * m.stride
	r := m.rows[i]
	r.D = m.d[base : base+m.cols : base+m.stride]
	r.NH = m.nh[base : base+m.cols : base+m.stride]
	wbase := i * m.wstride
	r.F = kernel.Bitset(m.fw[wbase : wbase+kernel.BitsetWords(m.cols) : wbase+m.wstride])
}

// ensureSlots grows the arena to hold at least `need` row slots, moving
// the existing rows (one contiguous copy) and re-pointing their views.
// Slot growth is row-count doubling, not the paper's column-resize term,
// so it does not count toward ResizeCopies.
func (m *Matrix) ensureSlots(need int) {
	if need*m.stride <= len(m.d) {
		return
	}
	newCap := 2 * (len(m.d) / m.stride)
	if newCap < need {
		newCap = need
	}
	if newCap < 4 {
		newCap = 4
	}
	d := make([]graph.Dist, newCap*m.stride)
	nh := make([]int32, newCap*m.stride)
	fw := make([]uint64, newCap*m.wstride)
	copy(d, m.d)
	copy(nh, m.nh)
	copy(fw, m.fw)
	m.d, m.nh, m.fw = d, nh, fw
	for i := range m.rows {
		m.view(i)
	}
}

// fillSlot initializes columns [lo, cols) of slot i to the fresh-row
// state (InfDist / unknown next hop), clearing any stale data left by a
// previously removed row.
func (m *Matrix) fillSlot(i, lo int) {
	base := i * m.stride
	for c := lo; c < m.cols; c++ {
		m.d[base+c] = graph.InfDist
		m.nh[base+c] = -1
	}
}

// fillSlotWords zeroes slot i's frontier words, clearing any stale bits
// left by a previously removed row.
func (m *Matrix) fillSlotWords(i int) {
	wbase := i * m.wstride
	fw := m.fw[wbase : wbase+m.wstride]
	for w := range fw {
		fw[w] = 0
	}
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
	i := len(m.rows)
	m.ensureSlots(i + 1)
	m.fillSlot(i, 0)
	m.fillSlotWords(i)
	base := i * m.stride
	m.d[base+int(v)] = 0
	m.nh[base+int(v)] = v
	r := &Row{Owner: v, mx: m}
	m.index[v] = i
	m.rows = append(m.rows, r)
	m.view(i)
	r.MarkShipAll() // fresh content: first ship carries the whole row
	return r
}

// RemoveRow deletes the row of v (repartitioning migrates rows between
// processors; vertex deletion drops them). The removed row is detached
// onto private backing — it stays valid and mutation-isolated from the
// matrix — and the freed slot is filled by the last row so the arena stays
// dense. Returns the removed row or nil.
func (m *Matrix) RemoveRow(v int32) *Row {
	i, ok := m.index[v]
	if !ok {
		return nil
	}
	r := m.rows[i]
	d := make([]graph.Dist, m.cols)
	nh := make([]int32, m.cols)
	fw := make(kernel.Bitset, kernel.BitsetWords(m.cols))
	copy(d, r.D)
	copy(nh, r.NH)
	copy(fw, r.F)
	r.D, r.NH, r.F, r.mx = d, nh, fw, nil

	last := len(m.rows) - 1
	if i != last {
		srcBase := last * m.stride
		dstBase := i * m.stride
		copy(m.d[dstBase:dstBase+m.cols], m.d[srcBase:srcBase+m.cols])
		copy(m.nh[dstBase:dstBase+m.cols], m.nh[srcBase:srcBase+m.cols])
		wSrc := last * m.wstride
		wDst := i * m.wstride
		copy(m.fw[wDst:wDst+m.wstride], m.fw[wSrc:wSrc+m.wstride])
		m.rows[i] = m.rows[last]
		m.index[m.rows[i].Owner] = i
		m.view(i)
	}
	m.rows = m.rows[:last]
	delete(m.index, v)
	return r
}

// AdoptRow installs a detached row (migrated from another processor),
// copying its content into the next arena slot. Its width is extended to
// the matrix's width if needed, and its snapshot aggregates are rescanned
// in full. Panics if the row is still attached to a matrix or a row for
// its owner already exists.
func (m *Matrix) AdoptRow(r *Row) {
	if _, ok := m.index[r.Owner]; ok {
		panic(fmt.Sprintf("dv: duplicate adopted row for vertex %d", r.Owner))
	}
	if r.mx != nil {
		panic(fmt.Sprintf("dv: adopting row %d still attached to a matrix", r.Owner))
	}
	i := len(m.rows)
	m.ensureSlots(i + 1)
	base := i * m.stride
	n := len(r.D)
	if n > m.cols {
		n = m.cols
	}
	copy(m.d[base:base+n], r.D[:n])
	copy(m.nh[base:base+n], r.NH[:n])
	m.fillSlot(i, n)
	m.fillSlotWords(i)
	wbase := i * m.wstride
	words := kernel.BitsetWords(m.cols)
	copy(m.fw[wbase:wbase+words], r.F)
	if tail := uint(m.cols & 63); tail != 0 {
		// keep bits at/above cols zero even if the adopted row was wider
		m.fw[wbase+words-1] &= 1<<tail - 1
	}
	r.mx = m
	r.staleFrom = 0
	m.index[r.Owner] = i
	m.rows = append(m.rows, r)
	m.view(i)
}

// ExtendCols widens every row by k new columns initialized to InfDist.
// While the new width fits the arena stride the slack is filled in place
// (zero copies); otherwise the arena is re-laid with a doubled stride (the
// paper assumes vector size doubles on resize, for an O(n+k) amortized
// cost, which is tracked in ResizeCopies).
func (m *Matrix) ExtendCols(k int) {
	if k <= 0 {
		return
	}
	old := m.cols
	m.cols += k
	if m.cols <= m.stride {
		for i := range m.rows {
			m.fillSlot(i, old)
			m.view(i)
		}
		return
	}
	newStride := 2 * m.stride
	if newStride < m.cols {
		newStride = m.cols
	}
	slotCap := len(m.d) / m.stride
	if slotCap < len(m.rows) {
		slotCap = len(m.rows)
	}
	newWstride := kernel.BitsetWords(newStride)
	d := make([]graph.Dist, slotCap*newStride)
	nh := make([]int32, slotCap*newStride)
	fw := make([]uint64, slotCap*newWstride)
	for i := range m.rows {
		copy(d[i*newStride:], m.d[i*m.stride:i*m.stride+old])
		copy(nh[i*newStride:], m.nh[i*m.stride:i*m.stride+old])
		// frontier bits at/above old cols are zero, so whole words move
		copy(fw[i*newWstride:], m.fw[i*m.wstride:(i+1)*m.wstride])
		m.ResizeCopies += int64(old)
	}
	m.d, m.nh, m.fw = d, nh, fw
	m.stride, m.wstride = newStride, newWstride
	for i := range m.rows {
		m.fillSlot(i, old)
		m.view(i)
	}
}

// DirtyRows returns the rows currently marked dirty, in slot order.
func (m *Matrix) DirtyRows() []*Row {
	var out []*Row
	for _, r := range m.rows {
		if r.Dirty {
			out = append(out, r)
		}
	}
	return out
}

// ClearDirty resets all dirty marks and pending windows (after shipping).
func (m *Matrix) ClearDirty() {
	for _, r := range m.rows {
		r.ClearDirty()
	}
}

// ClearFrontiers resets every attached row's dirty frontier in one arena
// sweep. Called at a clean global convergence — the fixpoint that
// re-anchors the masked kernels' skip rule.
func (m *Matrix) ClearFrontiers() {
	for w := range m.fw {
		m.fw[w] = 0
	}
	for _, r := range m.rows {
		r.FAll = false
	}
}

// FrontierStats scans the frontier arena and returns the number of nonzero
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

// CopyRow returns a deep copy of row r's shippable content — distances
// only. Next hops are processor-local routing state and the dirty/pending
// marks are the sender's bookkeeping, so neither travels with a snapshot.
func CopyRow(r *Row) *Row {
	return &Row{Owner: r.Owner, D: append([]graph.Dist(nil), r.D...)}
}

// Delta is the wire form of one boundary-row update: the columns
// [Lo, Lo+len(D)) of Owner's distance vector that changed since the row
// was last shipped. Like CopyRow snapshots, deltas carry distances only.
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
