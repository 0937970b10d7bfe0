package graph

import "testing"

func ringGraph(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, (i+1)%n, 1)
	}
	return g
}

func TestPartitionValidate(t *testing.T) {
	g := ringGraph(6)
	p := NewPartition(6, 2)
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	p.Part[3] = 5
	if err := p.Validate(g); err == nil {
		t.Fatal("out-of-range part should fail validation")
	}
	bad := NewPartition(4, 2)
	if err := bad.Validate(g); err == nil {
		t.Fatal("size mismatch should fail validation")
	}
}

func TestEdgeCutRing(t *testing.T) {
	g := ringGraph(8)
	p := NewPartition(8, 2)
	for v := 4; v < 8; v++ {
		p.Part[v] = 1
	}
	// contiguous halves of a ring: exactly 2 cut edges
	if cut := EdgeCut(g, p); cut != 2 {
		t.Fatalf("EdgeCut = %d, want 2", cut)
	}
	cs := CutSizes(g, p)
	if cs[0] != 2 || cs[1] != 2 {
		t.Fatalf("CutSizes = %v", cs)
	}
}

func TestImbalance(t *testing.T) {
	g := ringGraph(8)
	p := NewPartition(8, 2)
	if im := Imbalance(g, p); im != 2.0 { // all in part 0
		t.Fatalf("Imbalance = %g, want 2", im)
	}
	for v := 4; v < 8; v++ {
		p.Part[v] = 1
	}
	if im := Imbalance(g, p); im != 1.0 {
		t.Fatalf("Imbalance = %g, want 1", im)
	}
}

func TestPartitionExtendAndClone(t *testing.T) {
	p := NewPartition(3, 4)
	p.Part[1] = 2
	c := p.Clone()
	p.Extend([]int32{3, 1})
	if len(p.Part) != 5 || p.Part[3] != 3 {
		t.Fatalf("Extend wrong: %v", p.Part)
	}
	if len(c.Part) != 3 {
		t.Fatal("clone affected by Extend")
	}
	sizes := p.Sizes()
	if sizes[0] != 2 || sizes[1] != 1 || sizes[2] != 1 || sizes[3] != 1 {
		t.Fatalf("Sizes = %v", sizes)
	}
}
