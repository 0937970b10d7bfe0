package sssp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"anytime/internal/graph"
)

func randomGraph(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for g.NumEdges() < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, graph.Weight(1+rng.Intn(9)))
	}
	return g
}

func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1, graph.Weight(i+1))
	}
	return g
}

func TestDijkstraPath(t *testing.T) {
	g := pathGraph(5)
	d := Dijkstra(g, 0)
	want := []graph.Dist{0, 1, 3, 6, 10}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("d[%d] = %d, want %d", i, d[i], want[i])
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 2)
	d := Dijkstra(g, 0)
	if d[2] != graph.InfDist || d[3] != graph.InfDist {
		t.Fatalf("unreachable distances = %v", d)
	}
}

func TestDijkstraAgainstBellmanFord(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%30) + 2
		m := int(mRaw) % (n * (n - 1) / 2)
		g := randomGraph(n, m, seed)
		src := int(uint(seed) % uint(n))
		dd := Dijkstra(g, src)
		bf := BellmanFord(g, src)
		for i := range dd {
			if dd[i] != bf[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAPSPAgainstFloydWarshall(t *testing.T) {
	g := randomGraph(40, 100, 17)
	apsp := APSP(g)
	fw := DenseFromGraph(g)
	FloydWarshall(fw)
	for i := range apsp {
		for j := range apsp[i] {
			if apsp[i][j] != fw[i][j] {
				t.Fatalf("APSP[%d][%d]=%d vs FW %d", i, j, apsp[i][j], fw[i][j])
			}
		}
	}
}

func TestAPSPSymmetric(t *testing.T) {
	g := randomGraph(30, 60, 23)
	apsp := APSP(g)
	for i := range apsp {
		if apsp[i][i] != 0 {
			t.Fatalf("diagonal not 0 at %d", i)
		}
		for j := range apsp[i] {
			if apsp[i][j] != apsp[j][i] {
				t.Fatalf("asymmetric at [%d][%d]", i, j)
			}
		}
	}
}

// Masked Dijkstra must equal Dijkstra on the induced local sub-graph plus
// one-hop boundary extension: boundary vertices are relaxed, not expanded.
func TestDijkstraMaskSemantics(t *testing.T) {
	// path 0-1-2-3 with a shortcut 0-3 through masked-out vertex 3
	g := graph.New(5)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 4, 1)
	g.MustAddEdge(0, 3, 1)
	mask := []bool{true, true, true, false, false} // {0,1,2} local
	dist := make([]graph.Dist, 5)
	for i := range dist {
		dist[i] = graph.InfDist
	}
	var buf heapBuf
	DijkstraInto(g, 0, dist, mask, &buf)
	// 3 is reachable as a boundary vertex (relaxed via 0-3 and 2-3)
	if dist[3] != 1 {
		t.Fatalf("dist[3] = %d, want 1", dist[3])
	}
	// 4 is only reachable through 3, which must not be expanded
	if dist[4] != graph.InfDist {
		t.Fatalf("dist[4] = %d, want InfDist (mask violated)", dist[4])
	}
}

func TestMultiSourceMatchesSequential(t *testing.T) {
	g := randomGraph(60, 150, 31)
	sources := []int32{0, 7, 13, 25, 42, 59}
	for _, workers := range []int{1, 2, 4, 8} {
		rows := make([][]graph.Dist, len(sources))
		for i := range rows {
			rows[i] = make([]graph.Dist, 60)
			for j := range rows[i] {
				rows[i][j] = graph.InfDist
			}
		}
		ops := MultiSource(g, sources, rows, nil, workers)
		if ops == 0 {
			t.Fatal("no ops reported")
		}
		for i, s := range sources {
			want := Dijkstra(g, int(s))
			for j := range want {
				if rows[i][j] != want[j] {
					t.Fatalf("workers=%d source=%d mismatch at %d", workers, s, j)
				}
			}
		}
	}
}

func TestMultiSourceOpsDeterministic(t *testing.T) {
	g := randomGraph(50, 120, 37)
	sources := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	mk := func() [][]graph.Dist {
		rows := make([][]graph.Dist, len(sources))
		for i := range rows {
			rows[i] = make([]graph.Dist, 50)
			for j := range rows[i] {
				rows[i][j] = graph.InfDist
			}
		}
		return rows
	}
	ops1 := MultiSource(g, sources, mk(), nil, 1)
	ops4 := MultiSource(g, sources, mk(), nil, 4)
	if ops1 != ops4 {
		t.Fatalf("op count depends on workers: %d vs %d", ops1, ops4)
	}
}

func TestHeapOrdering(t *testing.T) {
	var h heap
	in := []graph.Dist{9, 3, 7, 1, 8, 2, 2, 5}
	for i, d := range in {
		h.push(int32(i), d)
	}
	prev := graph.Dist(-1)
	for !h.empty() {
		_, d := h.pop()
		if d < prev {
			t.Fatalf("heap popped %d after %d", d, prev)
		}
		prev = d
	}
}

func BenchmarkDijkstra(b *testing.B) {
	g := randomGraph(2000, 8000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Dijkstra(g, i%2000)
	}
}
