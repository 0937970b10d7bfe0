package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAddVertex(t *testing.T) {
	g := New(3)
	if g.NumVertices() != 3 || g.NumEdges() != 0 {
		t.Fatalf("got %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if id := g.AddVertex(); id != 3 {
		t.Fatalf("AddVertex returned %d", id)
	}
	if first := g.AddVertices(4); first != 4 {
		t.Fatalf("AddVertices returned %d", first)
	}
	if g.NumVertices() != 8 {
		t.Fatalf("got %d vertices", g.NumVertices())
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(4)
	cases := []struct {
		u, v int
		w    Weight
	}{
		{-1, 0, 1}, {0, 4, 1}, {1, 1, 1}, {0, 1, 0}, {0, 1, -2},
	}
	for _, c := range cases {
		if err := g.AddEdge(c.u, c.v, c.w); err == nil {
			t.Errorf("AddEdge(%d,%d,%d) should fail", c.u, c.v, c.w)
		}
	}
	if err := g.AddEdge(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0, 5); err == nil {
		t.Fatal("duplicate (reversed) edge should fail")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestEdgeSymmetry(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 1, 3)
	g.MustAddEdge(1, 4, 7)
	for _, pair := range [][2]int{{0, 1}, {1, 0}, {1, 4}, {4, 1}} {
		if !g.HasEdge(pair[0], pair[1]) {
			t.Fatalf("missing edge %v", pair)
		}
	}
	w, ok := g.EdgeWeight(4, 1)
	if !ok || w != 7 {
		t.Fatalf("EdgeWeight(4,1) = %d, %v", w, ok)
	}
	if g.Degree(1) != 2 {
		t.Fatalf("Degree(1) = %d", g.Degree(1))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	if err := g.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("edge still present")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if err := g.RemoveEdge(0, 1); err == nil {
		t.Fatal("double remove should fail")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestForEachEdgeVisitsOncePerEdge(t *testing.T) {
	g := randomGraph(40, 120, 99)
	count := 0
	g.ForEachEdge(func(u, v int, w Weight) {
		if u >= v {
			t.Fatalf("ForEachEdge order violated: %d >= %d", u, v)
		}
		count++
	})
	if count != g.NumEdges() {
		t.Fatalf("visited %d, edges %d", count, g.NumEdges())
	}
}

func TestCloneIndependence(t *testing.T) {
	g := randomGraph(20, 40, 1)
	c := g.Clone()
	v := c.AddVertex()
	c.MustAddEdge(0, v, 9)
	if g.NumEdges() == c.NumEdges() {
		t.Fatal("clone shares state")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// randomGraph builds a random simple graph for tests.
func randomGraph(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for g.NumEdges() < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, Weight(1+rng.Intn(9)))
	}
	return g
}

// Property: any graph constructed through the public API validates, and
// Clone preserves every edge with its weight.
func TestQuickCloneRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%30) + 2
		m := int(mRaw) % (n * (n - 1) / 2)
		g := randomGraph(n, m, seed)
		if g.Validate() != nil {
			return false
		}
		c := g.Clone()
		ok := true
		g.ForEachEdge(func(u, v int, w Weight) {
			cw, has := c.EdgeWeight(u, v)
			if !has || cw != w {
				ok = false
			}
		})
		return ok && c.NumEdges() == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxDegreeAndTotalWeight(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 2)
	g.MustAddEdge(0, 2, 3)
	g.MustAddEdge(0, 3, 4)
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	if g.TotalWeight() != 9 {
		t.Fatalf("TotalWeight = %d", g.TotalWeight())
	}
}

func TestAddDistSaturates(t *testing.T) {
	if AddDist(InfDist, 5) != InfDist {
		t.Fatal("InfDist + x should stay InfDist")
	}
	if AddDist(5, InfDist) != InfDist {
		t.Fatal("x + InfDist should stay InfDist")
	}
	if AddDist(InfDist-1, InfDist-1) != InfDist {
		t.Fatal("overflow should saturate")
	}
	if AddDist(3, 4) != 7 {
		t.Fatal("plain add broken")
	}
}
