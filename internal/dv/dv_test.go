package dv

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"anytime/internal/graph"
	"anytime/internal/kernel"
)

func TestAddRowInitialState(t *testing.T) {
	tb := NewMatrix(4)
	r := tb.AddRow(2)
	if r.Owner != 2 || !r.Dirty {
		t.Fatalf("row = %+v", r)
	}
	for i, d := range r.D {
		want := graph.InfDist
		if i == 2 {
			want = 0
		}
		if d != want {
			t.Fatalf("D[%d] = %d", i, d)
		}
	}
	if tb.Len() != 1 || !tb.Has(2) || tb.Has(1) {
		t.Fatal("membership wrong")
	}
}

func TestAddRowPanics(t *testing.T) {
	tb := NewMatrix(3)
	tb.AddRow(1)
	assertPanic(t, func() { tb.AddRow(1) }, "duplicate row")
	assertPanic(t, func() { tb.AddRow(7) }, "out-of-range row")
}

func assertPanic(t *testing.T, f func(), msg string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", msg)
		}
	}()
	f()
}

func TestRelax(t *testing.T) {
	tb := NewMatrix(3)
	r := tb.AddRow(0)
	r.Dirty = false
	if !r.Relax(1, 5) || r.D[1] != 5 || !r.Dirty {
		t.Fatal("first relax should apply")
	}
	r.Dirty = false
	if r.Relax(1, 7) {
		t.Fatal("worse relax should be ignored")
	}
	if r.Dirty {
		t.Fatal("ignored relax must not dirty the row")
	}
	if !r.Relax(1, 2) || r.D[1] != 2 {
		t.Fatal("better relax should apply")
	}
}

func TestExtendColsPreservesAndFills(t *testing.T) {
	tb := NewMatrix(2)
	r := tb.AddRow(0)
	r.D[1] = 9
	tb.ExtendCols(3)
	if tb.Cols() != 5 {
		t.Fatalf("cols = %d", tb.Cols())
	}
	if len(r.D) != 5 || r.D[1] != 9 {
		t.Fatalf("row lost data: %v", r.D)
	}
	for i := 2; i < 5; i++ {
		if r.D[i] != graph.InfDist {
			t.Fatalf("new column %d = %d", i, r.D[i])
		}
	}
	if tb.ResizeCopies == 0 {
		t.Fatal("resize copies not tracked")
	}
	tb.ExtendCols(0)
	if tb.Cols() != 5 {
		t.Fatal("ExtendCols(0) must be a no-op")
	}
}

// Property: interleaved AddRow/ExtendCols keeps every row at the table
// width with the self-distance zero, all-new columns InfDist, and resize
// cost within the amortized-doubling bound (total copies bounded by a
// small multiple of the final volume).
func TestQuickExtendAmortized(t *testing.T) {
	f := func(steps []uint8) bool {
		tb := NewMatrix(1)
		tb.AddRow(0)
		for _, s := range steps {
			k := int(s%7) + 1
			tb.ExtendCols(k)
			if s%3 == 0 {
				// the freshly added column ID has no row yet
				tb.AddRow(int32(tb.Cols() - 1))
			}
		}
		for _, r := range tb.Rows() {
			if len(r.D) != tb.Cols() {
				return false
			}
			if r.D[r.Owner] != 0 {
				return false
			}
		}
		volume := int64(tb.Len() * tb.Cols())
		return tb.ResizeCopies <= 4*volume+64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveAndAdoptRow(t *testing.T) {
	a := NewMatrix(4)
	b := NewMatrix(4)
	r0 := a.AddRow(0)
	a.AddRow(1)
	r0.D[3] = 7
	got := a.RemoveRow(0)
	if got != r0 || a.Has(0) || a.Len() != 1 {
		t.Fatal("remove failed")
	}
	if a.RemoveRow(0) != nil {
		t.Fatal("double remove should return nil")
	}
	b.AdoptRow(got)
	if !b.Has(0) || b.Row(0).D[3] != 7 {
		t.Fatal("adopt lost data")
	}
	assertPanic(t, func() { b.AdoptRow(got) }, "duplicate adopt")
}

func TestAdoptRowWidens(t *testing.T) {
	a := NewMatrix(2)
	a.AddRow(1)
	r := a.RemoveRow(1)
	b := NewMatrix(5)
	b.AdoptRow(r)
	if len(b.Row(1).D) != 5 {
		t.Fatalf("adopted row width %d", len(b.Row(1).D))
	}
	for i := 2; i < 5; i++ {
		if b.Row(1).D[i] != graph.InfDist {
			t.Fatal("widened tail must be InfDist")
		}
	}
}

// checkRows asserts the row-storage invariant of every row in m: width and
// capacity fitted to the matrix, slot index and attachment consistent,
// self-distance zero, frontier bits at or above the width clear up to the
// capacity, and no two rows' storage overlapping.
func checkRows(t *testing.T, m *Matrix) {
	t.Helper()
	words := kernel.BitsetWords(m.Cols())
	for i, r := range m.Rows() {
		if len(r.D) != m.Cols() || cap(r.D) < m.stride {
			t.Fatalf("row %d: len %d cap %d, want len %d cap >= %d", r.Owner, len(r.D), cap(r.D), m.Cols(), m.stride)
		}
		if len(r.F) != words || cap(r.F) < kernel.BitsetWords(m.stride) {
			t.Fatalf("row %d: frontier len %d cap %d, want len %d", r.Owner, len(r.F), cap(r.F), words)
		}
		if m.index[r.Owner] != i || r.mx != m {
			t.Fatalf("row %d: slot %d, index %d, attached %v", r.Owner, i, m.index[r.Owner], r.mx == m)
		}
		if r.D[r.Owner] != 0 {
			t.Fatalf("row %d self-distance %d", r.Owner, r.D[r.Owner])
		}
		f := r.F[:cap(r.F)]
		for c := m.Cols(); c < len(f)*64; c++ {
			if f.Get(c) {
				t.Fatalf("row %d: frontier bit %d at/above width %d", r.Owner, c, m.Cols())
			}
		}
	}
	span := func(r *Row) (uintptr, uintptr) {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(r.D)))
		return lo, lo + uintptr(cap(r.D))*unsafe.Sizeof(r.D[0])
	}
	for i, a := range m.Rows() {
		for _, b := range m.Rows()[i+1:] {
			alo, ahi := span(a)
			blo, bhi := span(b)
			if alo < bhi && blo < ahi {
				t.Fatalf("rows %d and %d share storage", a.Owner, b.Owner)
			}
		}
	}
}

// Every row owns storage of the matrix width with the stride's capacity,
// through in-place growth, slab growth, swap-remove and adoption of
// narrower, wider and under-capacity rows; values survive every move.
func TestRowStorageInvariant(t *testing.T) {
	m := NewMatrix(3)
	for v := int32(0); v < 3; v++ {
		m.AddRow(v)
	}
	m.Row(0).Relax(2, 7)
	checkRows(t, m)

	m.ExtendCols(2) // past the stride: 3 -> 6, every row moves into the slab
	checkRows(t, m)
	if m.stride != 6 || m.ResizeCopies != 9 || m.Row(0).D[2] != 7 || m.Row(0).D[4] != graph.InfDist {
		t.Fatalf("slab growth: stride %d, copies %d, row 0 %v", m.stride, m.ResizeCopies, m.Row(0).D)
	}
	rows := m.Rows()
	for i := 1; i < len(rows); i++ {
		step := uintptr(unsafe.Pointer(&rows[i].D[0])) - uintptr(unsafe.Pointer(&rows[i-1].D[0]))
		if step != uintptr(m.stride)*unsafe.Sizeof(graph.Dist(0)) {
			t.Fatalf("slab rows %d and %d are %d bytes apart, want consecutive windows", i-1, i, step)
		}
	}

	m.AddRow(4)
	m.ExtendCols(1) // fits the doubled stride: filled in place, no copies
	checkRows(t, m)
	if m.ResizeCopies != 9 || m.Row(0).D[2] != 7 || m.Row(4).D[5] != graph.InfDist {
		t.Fatalf("in-place growth: copies %d, row 0 %v", m.ResizeCopies, m.Row(0).D)
	}

	r0 := m.RemoveRow(0) // swap-remove moves row 4 into slot 0
	checkRows(t, m)
	if m.Rows()[0].Owner != 4 || m.Row(4) == nil || m.Len() != 3 {
		t.Fatal("swap-remove broke indexing")
	}
	if len(r0.D) != 6 || r0.D[2] != 7 || r0.D[0] != 0 {
		t.Fatalf("removed row lost its values: %v", r0.D)
	}
	m.AdoptRow(r0) // fits width and stride: keeps its storage
	checkRows(t, m)
	if &m.Row(0).D[0] != &r0.D[0] {
		t.Fatal("a fitting adopted row must keep its storage")
	}

	// A narrower row is padded with InfDist.
	narrow := NewMatrix(8)
	narrow.AddRow(7)
	narrow.AdoptRow(m.RemoveRow(0))
	checkRows(t, narrow)
	if d := narrow.Row(0).D; d[2] != 7 || d[6] != graph.InfDist || d[7] != graph.InfDist {
		t.Fatalf("narrow row adopted as %v", d)
	}

	// A wider row is cut to the width, frontier bits past it included.
	wide := NewMatrix(10)
	w := wide.AddRow(3)
	w.ClearFrontier()
	w.Relax(5, 2)
	w.Relax(8, 1)
	m.AdoptRow(wide.RemoveRow(3))
	checkRows(t, m)
	if d := m.Row(3).D; len(d) != 6 || d[5] != 2 || !m.Row(3).F.Get(5) {
		t.Fatalf("wide row adopted as %v", d)
	}

	// A row of the right width but below the stride's capacity is copied.
	m.ExtendCols(1) // 6 -> 7 columns, stride 12
	small := NewMatrix(7)
	s := small.AddRow(6)
	s.Relax(1, 3)
	m.AdoptRow(small.RemoveRow(6))
	checkRows(t, m)
	if d := m.Row(6).D; cap(d) < 12 || d[1] != 3 {
		t.Fatalf("under-capacity row adopted as %v (cap %d)", d, cap(d))
	}

	m.ExtendCols(20) // slab growth again over moved and adopted rows
	checkRows(t, m)
	if m.Row(3).D[5] != 2 || m.Row(6).D[1] != 3 || m.Row(4).D[26] != graph.InfDist {
		t.Fatal("slab growth lost values")
	}
}

// A removed row keeps its own storage: mutating it must not write through
// to the matrix, and neither writes to the matrix nor its later growth
// may reach the removed row.
func TestRemoveRowDetaches(t *testing.T) {
	m := NewMatrix(4)
	m.AddRow(0)
	m.AddRow(1)
	r := m.RemoveRow(0)
	r.D[2] = 42
	if m.Row(1).D[2] == 42 {
		t.Fatal("removed row still aliases the matrix")
	}
	m.Row(1).Relax(3, 5)
	if r.D[3] == 5 {
		t.Fatal("matrix write leaked into the removed row")
	}
	m.ExtendCols(6) // slab growth moves the rows still in the matrix
	m.Row(1).Relax(2, 8)
	if len(r.D) != 4 || r.D[2] != 42 || r.D[3] != graph.InfDist {
		t.Fatalf("growth after removal changed the removed row: %v", r.D)
	}
	if d := m.Row(1).D; d[2] != 8 || d[3] != 5 || d[9] != graph.InfDist {
		t.Fatalf("row 1 after growth: %v", d)
	}
}

func TestAdoptAttachedRowPanics(t *testing.T) {
	a := NewMatrix(2)
	r := a.AddRow(0)
	b := NewMatrix(2)
	assertPanic(t, func() { b.AdoptRow(r) }, "adopt attached row")
}

func TestDirtyRowsAndClear(t *testing.T) {
	tb := NewMatrix(3)
	tb.AddRow(0)
	tb.AddRow(1)
	dirty := func() (owners []int32) {
		for _, r := range tb.Rows() {
			if r.Dirty {
				owners = append(owners, r.Owner)
			}
		}
		return owners
	}
	if len(dirty()) != 2 {
		t.Fatal("fresh rows must be dirty")
	}
	tb.ClearDirty()
	if len(dirty()) != 0 {
		t.Fatal("clear failed")
	}
	tb.Row(1).Relax(0, 4)
	if dr := dirty(); len(dr) != 1 || dr[0] != 1 {
		t.Fatalf("dirty rows = %v", dr)
	}
}

// Building a table costs about the rows' own bytes: AddRow allocates one
// row (the Row, its distances and its frontier words) and never re-lays
// the rows built before it. The constant covers the Matrix, its index
// map's growth and the rows slice's doublings (measured: 3 per row + 26).
func TestTableBuildAllocation(t *testing.T) {
	const rows, cols = 250, 1000
	build := func() {
		m := NewMatrix(cols)
		for v := int32(0); v < rows; v++ {
			m.AddRow(v)
		}
	}
	own := rows * (4*cols + 8*kernel.BitsetWords(cols))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 1.25*float64(own) {
		t.Fatalf("building %d rows of width %d allocated %d bytes, want at most 1.25 x %d", rows, cols, got, own)
	}
	if got := testing.AllocsPerRun(5, build); got > 3*rows+26 {
		t.Fatalf("building %d rows took %.0f allocations, want at most %d", rows, got, 3*rows+26)
	}
}

func TestPendingWindowLifecycle(t *testing.T) {
	tb := NewMatrix(8)
	r := tb.AddRow(2)
	// Fresh rows ship in full.
	if all, _, _ := r.PendingState(); !all {
		t.Fatal("fresh row must be marked ship-all")
	}
	d := r.ShipDelta()
	if d.Lo != 0 || len(d.D) != 8 {
		t.Fatalf("fresh delta = lo=%d len=%d, want full row", d.Lo, len(d.D))
	}
	r.ClearPending()
	r.ClearDirty()
	r.ClearFrontier() // anchor a clean epoch: deltas now carry frontier words

	// Point relaxations accumulate into one window. The shipped window
	// rounds its start down to a 64-column boundary (here: 0) so the
	// attached frontier words line up with window offsets.
	r.Relax(5, 9)
	r.Relax(3, 4)
	if !r.Dirty {
		t.Fatal("relax must dirty the row")
	}
	d = r.ShipDelta()
	if d.Lo != 0 || len(d.D) != 6 {
		t.Fatalf("delta = lo=%d len=%d, want word-aligned window [0,6)", d.Lo, len(d.D))
	}
	if d.D[3] != 4 || d.D[5] != 9 {
		t.Fatalf("delta columns wrong: %v", d.D)
	}
	if len(d.F) != 1 || !d.F.Get(3) || !d.F.Get(5) || d.F.Get(4) {
		t.Fatalf("delta frontier wrong: %v", d.F)
	}
	if d.WireBytes() != 4*6+8*1+16 {
		t.Fatalf("WireBytes = %d", d.WireBytes())
	}
	// Delta snapshots must not alias the row.
	d.D[3] = 1
	d.F[0] = 0
	if r.D[3] == 1 || !r.F.Get(3) {
		t.Fatal("ShipDelta aliases the row")
	}

	// After shipping, the window resets; new changes start a fresh window.
	r.ClearPending()
	r.MarkChanged(6, 7)
	d = r.ShipDelta()
	if d.Lo != 0 || len(d.D) != 7 {
		t.Fatalf("post-ship delta = lo=%d len=%d, want word-aligned window [0,7)", d.Lo, len(d.D))
	}

	// MarkShipAll overrides any window, and the unknown change extent
	// means no frontier words travel.
	r.MarkShipAll()
	if d := r.ShipDelta(); d.Lo != 0 || len(d.D) != 8 || d.F != nil {
		t.Fatal("MarkShipAll must force a full-row delta without frontier words")
	}

	// Dirty with an empty window (e.g. a restored pre-delta checkpoint)
	// falls back to a full ship.
	r.ClearDirty()
	r.Dirty = true
	if d := r.ShipDelta(); d.Lo != 0 || len(d.D) != 8 {
		t.Fatal("dirty row with empty window must ship in full")
	}
}

func TestMarkChangedUnionsWindows(t *testing.T) {
	tb := NewMatrix(10)
	r := tb.AddRow(0)
	r.ClearDirty()
	r.MarkChanged(4, 6)
	r.MarkChanged(2, 5)
	r.MarkChanged(8, 9)
	d := r.ShipDelta()
	if d.Lo != 0 || len(d.D) != 9 {
		t.Fatalf("union window = [%d,%d), want word-aligned [0,9)", d.Lo, int(d.Lo)+len(d.D))
	}
	// Empty marks are no-ops.
	r.ClearDirty()
	r.MarkChanged(5, 5)
	if r.Dirty {
		t.Fatal("empty MarkChanged must not dirty the row")
	}
}

// A window past the first word must round its start down to the word
// boundary, and the shipped frontier words must be the row's words over
// exactly that range, so window-relative bit positions address the right
// columns.
func TestShipDeltaFrontierAlignment(t *testing.T) {
	tb := NewMatrix(130)
	r := tb.AddRow(1)
	r.ClearDirty()
	r.ClearFrontier()
	r.Relax(70, 9)
	r.Relax(100, 4)
	d := r.ShipDelta()
	if d.Lo != 64 || len(d.D) != 101-64 {
		t.Fatalf("delta = lo=%d len=%d, want word-aligned window [64,101)", d.Lo, len(d.D))
	}
	if d.D[70-64] != 9 || d.D[100-64] != 4 {
		t.Fatalf("delta columns wrong: %v", d.D)
	}
	if len(d.F) != 1 || !d.F.Get(70-64) || !d.F.Get(100-64) || d.F.OnesCount() != 2 {
		t.Fatalf("delta frontier wrong: %v", d.F)
	}
	// FullDelta over a clean-epoch row carries the whole frontier.
	fd := r.FullDelta()
	if fd.Lo != 0 || len(fd.D) != 130 || len(fd.F) != 3 {
		t.Fatalf("full delta = lo=%d len=%d fwords=%d", fd.Lo, len(fd.D), len(fd.F))
	}
	if !fd.F.Get(70) || !fd.F.Get(100) || fd.F.OnesCount() != 2 {
		t.Fatalf("full-delta frontier wrong: %v", fd.F)
	}
}

// scanAgg is the reference for Row.Aggregates: one sequential pass over
// the whole row.
func scanAgg(r *Row) Agg {
	var a Agg
	for t, d := range r.D {
		if d == graph.InfDist || int32(t) == r.Owner {
			continue
		}
		a.Sum += int64(d)
		a.Harm += 1 / float64(d)
		a.Reach++
		a.Ecc = max(a.Ecc, d)
	}
	return a
}

// TestRowAggregates walks the stale-from watermark through every rule: a
// fresh row and a ship-all row rescan in full, a marked write resumes at
// the 64-column boundary below it, growth alone rescans nothing (also from
// a width on the 64-column grid), and an adopted row rescans in full even
// if it was written while detached.
func TestRowAggregates(t *testing.T) {
	m := NewMatrix(128)
	r := m.AddRow(5)
	check := func(label string, wantRead int) {
		t.Helper()
		got, read := r.Aggregates()
		want := scanAgg(r)
		if got.Sum != want.Sum || math.Float64bits(got.Harm) != math.Float64bits(want.Harm) ||
			got.Reach != want.Reach || got.Ecc != want.Ecc {
			t.Fatalf("%s: aggregates %+v, full scan %+v", label, got, want)
		}
		if read != wantRead {
			t.Fatalf("%s: read %d cells, want %d", label, read, wantRead)
		}
	}
	for c := range r.D {
		if c != 5 {
			r.D[c] = graph.Dist(1 + c%7)
		}
	}
	check("fresh row", 128)
	check("unchanged", 0)
	r.Relax(100, 1)
	check("relax at 100", 64)
	r.D[64] = 2
	r.MarkChanged(64, 65)
	check("marked write at 64", 64)
	r.D[63] = 1
	r.MarkChanged(63, 70)
	check("marked write at 63", 128)
	m.ExtendCols(72)
	check("growth", 0)
	r.D[150] = 4
	r.MarkChanged(150, 151)
	check("write past the old width", 200-64)
	r.D[10] = 1
	r.MarkShipAll()
	check("ship-all", 200)
	d := m.RemoveRow(5)
	d.D[3] = 9
	m.AdoptRow(d)
	r = d
	check("adopted", 200)
}
