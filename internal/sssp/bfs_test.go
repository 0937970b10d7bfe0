package sssp

import (
	"math/rand"
	"testing"

	"anytime/internal/graph"
	"anytime/internal/kernel"
)

func unitGraph(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for g.NumEdges() < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, 1)
	}
	return g
}

func infRow(n int) []graph.Dist {
	d := make([]graph.Dist, n)
	for i := range d {
		d[i] = graph.InfDist
	}
	return d
}

// On unit-weight graphs Dijkstra degenerates to BFS: the flat-FIFO fast
// path must produce bit-identical distances.
func TestBFSMatchesDijkstraUnitWeights(t *testing.T) {
	const n = 70
	g := unitGraph(n, 160, 41)
	var hb heapBuf
	var qb queueBuf
	for src := int32(0); src < n; src += 7 {
		dd := infRow(n)
		DijkstraInto(g, src, dd, nil, &hb)
		bd := infRow(n)
		BFSInto(g, src, bd, nil, &qb)
		for t2 := 0; t2 < n; t2++ {
			if bd[t2] != dd[t2] {
				t.Fatalf("src %d: BFS dist[%d] = %d, Dijkstra %d", src, t2, bd[t2], dd[t2])
			}
		}
	}
}

// BFS must honor the IA-phase mask contract: boundary vertices are relaxed
// but never expanded.
func TestBFSMaskSemantics(t *testing.T) {
	g := graph.New(5)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 4, 1)
	g.MustAddEdge(0, 3, 1)
	mask := []bool{true, true, true, false, false} // {0,1,2} local
	dist := infRow(5)
	var buf queueBuf
	BFSInto(g, 0, dist, mask, &buf)
	if dist[3] != 1 {
		t.Fatalf("dist[3] = %d, want 1", dist[3])
	}
	if dist[4] != graph.InfDist {
		t.Fatalf("dist[4] = %d, want InfDist (mask violated)", dist[4])
	}
}

// The BFS multi-source pool must agree with the Dijkstra pool for every
// worker count (distances are weight-1 exact either way).
func TestMultiSourceBFSMatchesDijkstra(t *testing.T) {
	const n = 60
	g := unitGraph(n, 140, 43)
	sources := []int32{0, 5, 11, 23, 42, 59}
	mk := func() [][]graph.Dist {
		rows := make([][]graph.Dist, len(sources))
		for i := range rows {
			rows[i] = infRow(n)
		}
		return rows
	}
	refRows := mk()
	MultiSource(g, sources, refRows, nil, 1)
	for _, workers := range []int{1, 2, 4} {
		rows := mk()
		ops := MultiSourceBFS(g, sources, rows, nil, workers)
		if ops == 0 {
			t.Fatal("no ops reported")
		}
		for i := range sources {
			for j := 0; j < n; j++ {
				if rows[i][j] != refRows[i][j] {
					t.Fatalf("workers=%d source=%d dist mismatch at %d", workers, sources[i], j)
				}
			}
		}
	}
}

// The frontier-seeded core must absorb mixed-depth seeds: seeding the
// queue with any subset of correctly-distanced vertices (src included)
// reproduces the full single-source answer, because the SPFA-shaped loop
// re-enqueues on every improvement rather than assuming BFS level order.
func TestBFSFrontierMixedDepthSeeds(t *testing.T) {
	const n = 80
	g := unitGraph(n, 180, 47)
	var qb queueBuf
	ref := infRow(n)
	BFSInto(g, 0, ref, nil, &qb)
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 10; trial++ {
		frontier := kernel.NewBitset(n)
		dist := infRow(n)
		frontier.Set(0)
		dist[0] = 0
		for v := 1; v < n; v++ {
			if rng.Intn(3) == 0 {
				frontier.Set(v)
				dist[v] = ref[v] // seed at its true depth
			}
		}
		BFSFrontierInto(g, frontier, dist, nil, &qb)
		for v := 0; v < n; v++ {
			if dist[v] != ref[v] {
				t.Fatalf("trial %d: frontier-seeded dist[%d] = %d, want %d", trial, v, dist[v], ref[v])
			}
		}
	}
}
