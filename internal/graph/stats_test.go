package graph

import (
	"testing"
)

func TestStatsWeightProfile(t *testing.T) {
	g := New(4)
	s := Stats(g)
	if !s.UnitWeights || s.MinWeight != 0 || s.MaxWeight != 0 || s.Vertices != 4 || s.Edges != 0 {
		t.Fatalf("edgeless stats = %+v", s)
	}
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	s = Stats(g)
	if !s.UnitWeights || s.MinWeight != 1 || s.MaxWeight != 1 || s.Edges != 2 {
		t.Fatalf("unit stats = %+v", s)
	}
	g.MustAddEdge(2, 3, 5)
	s = Stats(g)
	if s.UnitWeights || s.MinWeight != 1 || s.MaxWeight != 5 {
		t.Fatalf("mixed stats = %+v", s)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(7)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(3, 4, 1)
	// 5 and 6 isolated
	comp, k := ConnectedComponents(g)
	if k != 4 {
		t.Fatalf("components = %d, want 4", k)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatal("0,1,2 should share a component")
	}
	if comp[3] != comp[4] {
		t.Fatal("3,4 should share a component")
	}
	if comp[5] == comp[6] {
		t.Fatal("isolated vertices must differ")
	}
	if IsConnected(g) {
		t.Fatal("graph is not connected")
	}
	if !IsConnected(ringGraph(5)) {
		t.Fatal("ring is connected")
	}
	if !IsConnected(New(0)) {
		t.Fatal("empty graph counts as connected")
	}
}

func TestMeanDegree(t *testing.T) {
	g := ringGraph(5)
	if MeanDegree(g) != 2 {
		t.Fatalf("mean = %g", MeanDegree(g))
	}
	if MeanDegree(New(0)) != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestPowerLawExponentDetectsHeavyTail(t *testing.T) {
	// star graph: one hub of degree n-1, leaves of degree 1
	n := 200
	g := New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(0, v, 1)
	}
	gamma := PowerLawExponent(g, 1)
	if gamma <= 1 || gamma > 5 {
		t.Fatalf("gamma = %g outside plausible range", gamma)
	}
	if PowerLawExponent(New(3), 1) != 0 {
		t.Fatal("edgeless graph should give 0")
	}
}
