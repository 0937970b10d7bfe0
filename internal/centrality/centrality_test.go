package centrality

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"anytime/internal/gen"
	"anytime/internal/graph"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func starGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(0, v, 1)
	}
	return g
}

func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1, 1)
	}
	return g
}

func TestClosenessStar(t *testing.T) {
	c := Closeness(starGraph(5))
	if !approx(c[0], 1.0/4) {
		t.Fatalf("hub closeness = %g", c[0])
	}
	// leaf: 1 + 2+2+2 = 7
	if !approx(c[1], 1.0/7) {
		t.Fatalf("leaf closeness = %g", c[1])
	}
}

func TestClosenessDisconnected(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 2)
	c := Closeness(g)
	if !approx(c[0], 0.5) || !approx(c[2], 0) {
		t.Fatalf("closeness = %v", c)
	}
}

func TestHarmonicPath(t *testing.T) {
	h := Harmonic(pathGraph(3))
	if !approx(h[0], 1+0.5) || !approx(h[1], 2) {
		t.Fatalf("harmonic = %v", h)
	}
}

func TestClosenessMatchesEngineScaleFree(t *testing.T) {
	g, err := gen.BarabasiAlbert(120, 2, gen.Weights{Min: 1, Max: 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := Closeness(g)
	for v, cv := range c {
		if cv <= 0 {
			t.Fatalf("closeness[%d] = %g on a connected graph", v, cv)
		}
	}
	// hubs (max degree) should rank above the median closeness
	hub := 0
	for v := 1; v < 120; v++ {
		if g.Degree(v) > g.Degree(hub) {
			hub = v
		}
	}
	above := 0
	for _, cv := range c {
		if c[hub] >= cv {
			above++
		}
	}
	if above < 100 {
		t.Fatalf("hub closeness rank too low: above %d/120", above)
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{0.3, 0.9, 0.1, 0.9, 0.5}
	top := TopK(scores, 3)
	want := []int{1, 3, 4}
	for i := range want {
		if top[i] != want[i] {
			t.Fatalf("TopK = %v, want %v", top, want)
		}
	}
	if len(TopK(scores, 99)) != 5 {
		t.Fatal("k > n should clamp")
	}
}

func TestTopKDegenerate(t *testing.T) {
	scores := []float64{0.3, 0.9, 0.1}
	if got := TopK(scores, 0); len(got) != 0 {
		t.Fatalf("TopK(k=0) = %v, want empty", got)
	}
	if got := TopK(scores, -7); len(got) != 0 {
		t.Fatalf("TopK(k=-7) = %v, want empty", got)
	}
	if got := TopK(nil, 5); len(got) != 0 {
		t.Fatalf("TopK(nil) = %v, want empty", got)
	}
	full := TopK(scores, 99)
	want := []int{1, 0, 2}
	for i := range want {
		if full[i] != want[i] {
			t.Fatalf("TopK clamped = %v, want %v", full, want)
		}
	}
}

func TestTopKMatchesSort(t *testing.T) {
	// Heap selection must agree with a full sort, including index
	// tie-breaks, on a score vector with many duplicates.
	rng := rand.New(rand.NewSource(42))
	scores := make([]float64, 500)
	for i := range scores {
		scores[i] = float64(rng.Intn(20)) / 20
	}
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return scores[order[a]] > scores[order[b]]
	})
	for _, k := range []int{1, 7, 50, 499, 500} {
		got := TopK(scores, k)
		if len(got) != k {
			t.Fatalf("k=%d: got %d results", k, len(got))
		}
		for i := range got {
			if got[i] != order[i] {
				t.Fatalf("k=%d: rank %d = %d, want %d", k, i, got[i], order[i])
			}
		}
	}
}
