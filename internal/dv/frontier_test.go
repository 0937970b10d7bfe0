package dv

import (
	"testing"

	"anytime/internal/kernel"
)

func TestFrontierRelaxRecordsBits(t *testing.T) {
	m := NewMatrix(10)
	r := m.AddRow(3)
	if !r.FAll {
		t.Fatal("fresh row must have FAll (unknown change extent)")
	}
	r.ClearFrontier()
	if r.FAll || r.F.Any() {
		t.Fatal("ClearFrontier left state behind")
	}
	if !r.Relax(7, 5) {
		t.Fatal("relax should improve")
	}
	if !r.F.Get(7) || r.F.OnesCount() != 1 {
		t.Fatalf("frontier bits wrong: %v", r.F)
	}
	// Non-improving relax records nothing.
	if r.Relax(7, 9) || r.F.OnesCount() != 1 {
		t.Fatal("non-improving relax touched the frontier")
	}
	r.MarkShipAll()
	if !r.FAll {
		t.Fatal("MarkShipAll must set FAll")
	}
	// ClearDirty (end of relax phase) must NOT clear the frontier — it
	// resets only at global convergence.
	r.ClearDirty()
	if !r.FAll || !r.F.Get(7) {
		t.Fatal("ClearDirty cleared the frontier")
	}
}

func TestFrontierSurvivesRowMoves(t *testing.T) {
	m := NewMatrix(70) // >1 word per row
	for v := int32(0); v < 5; v++ {
		m.AddRow(v)
	}
	for _, r := range m.Rows() {
		r.ClearFrontier()
	}
	m.Row(2).Relax(65, 9)
	m.Row(4).Relax(3, 9)

	// The removed row keeps its frontier, and the swap-remove moves the
	// last row into the freed slot with its words.
	r2 := m.RemoveRow(2)
	if !r2.F.Get(65) || r2.F.OnesCount() != 1 {
		t.Fatalf("removed frontier lost bit 65: %v", r2.F)
	}
	if got := m.Row(4).F; !got.Get(3) || got.OnesCount() != 1 {
		t.Fatalf("slot-swapped row 4 frontier wrong: %v", got)
	}
	// Mutating the matrix after removal must not reach the removed row.
	m.Row(4).Relax(60, 1)
	if r2.F.Get(60) {
		t.Fatal("removed frontier aliases a matrix row")
	}

	// AdoptRow carries the frontier into the new matrix.
	m2 := NewMatrix(70)
	m2.AddRow(10)
	m2.AdoptRow(r2)
	if got := m2.Row(2).F; !got.Get(65) || got.OnesCount() != 1 {
		t.Fatalf("adopted frontier wrong: %v", got)
	}
}

func TestFrontierExtendCols(t *testing.T) {
	// In place: cols grows within the stride; new bits must read as zero.
	m := NewMatrix(100)
	r := m.AddRow(0)
	r.ClearFrontier()
	r.Relax(99, 5)
	m.ExtendCols(0) // no-op
	if !r.F.Get(99) {
		t.Fatal("no-op extend lost a bit")
	}

	// Relayout: force a stride doubling and check bits survive while new
	// columns stay clear.
	m.ExtendCols(60)
	r = m.Row(0)
	if !r.F.Get(99) || r.F.OnesCount() != 1 {
		t.Fatalf("relayout lost frontier bits: count=%d", r.F.OnesCount())
	}
	if len(r.F) != kernel.BitsetWords(160) {
		t.Fatalf("frontier view len %d, want %d", len(r.F), kernel.BitsetWords(160))
	}
	for c := 100; c < 160; c++ {
		if r.F.Get(c) {
			t.Fatalf("new column %d marked changed", c)
		}
	}
	r.Relax(159, 2)
	if !r.F.Get(159) {
		t.Fatal("cannot set bit in extended region")
	}
	if r.D[159] != 2 {
		t.Fatal("extended column distance wrong")
	}
}

func TestFrontierSlotReuseIsClean(t *testing.T) {
	m := NewMatrix(64)
	a := m.AddRow(1)
	a.ClearFrontier()
	a.Relax(10, 3)
	m.RemoveRow(1)
	// The freed slot is reused by the next AddRow; stale bits must not leak.
	b := m.AddRow(2)
	b.ClearFrontier()
	if b.F.Any() {
		t.Fatalf("reused slot leaked stale frontier bits: %v", b.F)
	}
}

func TestFrontierStats(t *testing.T) {
	m := NewMatrix(130)
	for v := int32(0); v < 3; v++ {
		m.AddRow(v)
	}
	// All rows fresh => FAll: full density.
	words, bits := m.FrontierStats()
	if bits != 3*130 || words != 3*kernel.BitsetWords(130) {
		t.Fatalf("FAll stats: words=%d bits=%d", words, bits)
	}
	m.ClearFrontiers()
	if words, bits = m.FrontierStats(); words != 0 || bits != 0 {
		t.Fatalf("cleared stats: words=%d bits=%d", words, bits)
	}
	m.Row(1).Relax(5, 1)
	m.Row(1).Relax(128, 1)
	if words, bits = m.FrontierStats(); words != 2 || bits != 2 {
		t.Fatalf("sparse stats: words=%d bits=%d", words, bits)
	}
}
