package graph

import (
	"testing"
	"testing/quick"
)

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

func TestExtractSub(t *testing.T) {
	g := ringGraph(6)
	p := NewPartition(6, 2)
	for v := 3; v < 6; v++ {
		p.Part[v] = 1
	}
	s0 := ExtractSub(g, p, 0)
	if len(s0.Local) != 3 {
		t.Fatalf("local = %v", s0.Local)
	}
	// part 0 = {0,1,2}; cut edges are {2,3} and {0,5}
	wantBoundary := []int32{3, 5}
	if len(s0.Boundary) != 2 || s0.Boundary[0] != wantBoundary[0] || s0.Boundary[1] != wantBoundary[1] {
		t.Fatalf("boundary = %v, want %v", s0.Boundary, wantBoundary)
	}
	wantLB := []int32{0, 2}
	if len(s0.LocalBoundary) != 2 || s0.LocalBoundary[0] != wantLB[0] || s0.LocalBoundary[1] != wantLB[1] {
		t.Fatalf("local boundary = %v, want %v", s0.LocalBoundary, wantLB)
	}
}

// Property: for random graphs and partitions, every part's Sub is
// consistent: locals are disjoint and cover V; every boundary vertex of
// part i is adjacent to a local vertex of part i and belongs elsewhere.
func TestQuickSubConsistency(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw%25) + 4
		k := int(kRaw)%3 + 2
		m := 2 * n
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		g := randomGraph(n, m, seed)
		p := NewPartition(n, k)
		for v := range p.Part {
			p.Part[v] = int32(v % k)
		}
		covered := make([]bool, n)
		for part := 0; part < k; part++ {
			s := ExtractSub(g, p, int32(part))
			for _, v := range s.Local {
				if covered[v] {
					return false
				}
				covered[v] = true
			}
			for _, b := range s.Boundary {
				if p.Part[b] == int32(part) {
					return false
				}
				adj := false
				for _, a := range g.Neighbors(int(b)) {
					if p.Part[a.To] == int32(part) {
						adj = true
					}
				}
				if !adj {
					return false
				}
			}
			for _, v := range s.LocalBoundary {
				if p.Part[v] != int32(part) {
					return false
				}
			}
		}
		for _, c := range covered {
			if !c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
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
