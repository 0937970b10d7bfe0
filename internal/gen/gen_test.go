package gen

import (
	"testing"

	"anytime/internal/graph"
)

func TestBarabasiAlbertShape(t *testing.T) {
	g, err := BarabasiAlbert(500, 3, Weights{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 500 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// clique m0=4 (6 edges) + (n-m0)*m edges
	want := 6 + (500-4)*3
	if g.NumEdges() != want {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), want)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !graph.IsConnected(g) {
		t.Fatal("BA graph must be connected")
	}
}

func TestBarabasiAlbertScaleFree(t *testing.T) {
	g, err := BarabasiAlbert(3000, 2, Weights{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// preferential attachment yields gamma ≈ 3; accept a broad band
	gamma := graph.PowerLawExponent(g, 4)
	if gamma < 1.8 || gamma > 4.5 {
		t.Fatalf("power-law exponent %.2f outside scale-free band", gamma)
	}
	// heavy tail: max degree far above the mean
	if float64(g.MaxDegree()) < 6*graph.MeanDegree(g) {
		t.Fatalf("max degree %d too small vs mean %.1f", g.MaxDegree(), graph.MeanDegree(g))
	}
}

func TestBarabasiAlbertDeterministic(t *testing.T) {
	a, _ := BarabasiAlbert(200, 2, Weights{Min: 1, Max: 5}, 42)
	b, _ := BarabasiAlbert(200, 2, Weights{Min: 1, Max: 5}, 42)
	same := true
	a.ForEachEdge(func(u, v int, w graph.Weight) {
		bw, ok := b.EdgeWeight(u, v)
		if !ok || bw != w {
			same = false
		}
	})
	if !same || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
}

func TestBarabasiAlbertErrors(t *testing.T) {
	if _, err := BarabasiAlbert(3, 3, Weights{}, 1); err == nil {
		t.Fatal("n < m+1 should fail")
	}
	if _, err := BarabasiAlbert(10, 0, Weights{}, 1); err == nil {
		t.Fatal("m < 1 should fail")
	}
}

func TestPlantedPartitionCommunities(t *testing.T) {
	g, label, err := PlantedPartition(200, 4, 0.3, 0.01, Weights{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(label) != 200 {
		t.Fatalf("labels = %d", len(label))
	}
	intra, inter := 0, 0
	g.ForEachEdge(func(u, v int, _ graph.Weight) {
		if label[u] == label[v] {
			intra++
		} else {
			inter++
		}
	})
	if intra <= 3*inter {
		t.Fatalf("no community structure: intra=%d inter=%d", intra, inter)
	}
}

func TestRMAT(t *testing.T) {
	g, err := RMAT(8, 500, 0.57, 0.19, 0.19, Weights{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 256 || g.NumEdges() != 500 {
		t.Fatalf("shape %d/%d", g.NumVertices(), g.NumEdges())
	}
	if _, err := RMAT(4, 500, 0.5, 0.3, 0.3, Weights{}, 1); err == nil {
		t.Fatal("bad probabilities should fail")
	}
}

func TestConnectify(t *testing.T) {
	g := graph.New(10)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	added := Connectify(g, 1)
	if !graph.IsConnected(g) {
		t.Fatal("not connected after Connectify")
	}
	// 8 components (2 pairs + 6 singletons) need 7 joins
	if added != 7 {
		t.Fatalf("added %d edges, want 7", added)
	}
	if Connectify(g, 1) != 0 {
		t.Fatal("already-connected graph should add nothing")
	}
}

func TestWeightsDraw(t *testing.T) {
	g, err := BarabasiAlbert(100, 2, Weights{Min: 3, Max: 7}, 11)
	if err != nil {
		t.Fatal(err)
	}
	g.ForEachEdge(func(_, _ int, w graph.Weight) {
		if w < 3 || w > 7 {
			t.Fatalf("weight %d outside [3,7]", w)
		}
	})
	g2, _ := BarabasiAlbert(50, 2, Weights{}, 11)
	g2.ForEachEdge(func(_, _ int, w graph.Weight) {
		if w != 1 {
			t.Fatalf("zero Weights must give unit weights, got %d", w)
		}
	})
}

func TestRandomGeometric(t *testing.T) {
	g, err := RandomGeometric(500, 0.08, Weights{}, 13)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 500 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// expected mean degree ≈ n·π·r² ≈ 10; accept a broad band
	md := graph.MeanDegree(g)
	if md < 4 || md > 20 {
		t.Fatalf("mean degree %.1f outside plausible band", md)
	}
	// determinism
	h, _ := RandomGeometric(500, 0.08, Weights{}, 13)
	if h.NumEdges() != g.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	if _, err := RandomGeometric(10, 0, Weights{}, 1); err == nil {
		t.Fatal("radius 0 should fail")
	}
	if _, err := RandomGeometric(10, 2, Weights{}, 1); err == nil {
		t.Fatal("radius 2 should fail")
	}
}

// A geometric (sensor-network) workload must also run exactly through the
// generators' main consumer path: quick shape check only here; the engine
// exactness is covered in core tests.
func TestRandomGeometricEdgesAreLocal(t *testing.T) {
	g, err := RandomGeometric(200, 0.15, Weights{Min: 2, Max: 5}, 7)
	if err != nil {
		t.Fatal(err)
	}
	g.ForEachEdge(func(_, _ int, w graph.Weight) {
		if w < 2 || w > 5 {
			t.Fatalf("weight %d outside range", w)
		}
	})
}
