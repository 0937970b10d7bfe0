package sssp

import (
	"math/rand"
	"testing"

	"anytime/internal/graph"
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

// The bit-parallel multi-source BFS must agree with the Dijkstra pool for
// every worker count, unmasked and masked: distances are weight-1 exact
// either way, and on unit weights Dijkstra pushes each vertex once, so the
// op counts (pops plus edge scans) are equal too.
func TestMultiSourceBFSMatchesDijkstra(t *testing.T) {
	const n = 60
	g := unitGraph(n, 140, 43)
	sources := []int32{0, 5, 11, 23, 42, 59}
	local := make([]bool, n)
	for v := range local {
		local[v] = v%3 != 2
	}
	mk := func() [][]graph.Dist {
		rows := make([][]graph.Dist, len(sources))
		for i, s := range sources {
			rows[i] = infRow(n)
			rows[i][s] = 0
		}
		return rows
	}
	for _, mask := range [][]bool{nil, local} {
		refRows := mk()
		refOps := MultiSource(g, sources, refRows, mask, 1)
		for _, workers := range []int{1, 2, 4} {
			rows := mk()
			ops := MultiSourceBFS(g, sources, rows, mask, workers)
			if ops != refOps {
				t.Fatalf("masked=%v workers=%d: ops %d, Dijkstra %d", mask != nil, workers, ops, refOps)
			}
			for i := range sources {
				for j := 0; j < n; j++ {
					if rows[i][j] != refRows[i][j] {
						t.Fatalf("masked=%v workers=%d source=%d dist mismatch at %d", mask != nil, workers, sources[i], j)
					}
				}
			}
		}
	}
}

// FuzzMultiSourceBFS holds the bit-parallel kernel equal — distances and op
// count — to one FIFO BFSInto per source, on graphs with several components
// and isolated vertices, n below and across multiples of 64, source lists
// that fill no, one, part of or more than one batch (repeats allowed), a
// random mask and 1–3 workers.
func FuzzMultiSourceBFS(f *testing.F) {
	for i := 0; i < 12; i++ {
		f.Add(int64(i), uint8(7+23*i), uint8(i), uint8(1+37*i), uint8(i+i/6))
	}
	lengths := []int{0, 1, 63, 64, 65, 130}
	f.Fuzz(func(t *testing.T, seed int64, nRaw, lenSel, density, workersRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%150
		// Component 0 holds the isolated vertices; edges join two vertices
		// of one other component.
		comps := 2 + rng.Intn(3)
		comp := make([]int, n)
		for v := range comp {
			comp[v] = rng.Intn(comps)
		}
		g := graph.New(n)
		for e := rng.Intn(3 * n); e > 0; e-- {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && comp[u] != 0 && comp[u] == comp[v] && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v, 1)
			}
		}
		var mask []bool
		if density%4 != 0 {
			mask = make([]bool, n)
			for v := range mask {
				mask[v] = rng.Intn(256) < int(density)
			}
		}
		sources := make([]int32, lengths[int(lenSel)%len(lengths)])
		rows := make([][]graph.Dist, len(sources))
		var qb queueBuf
		var wantOps int64
		want := make([][]graph.Dist, len(sources))
		for i := range sources {
			sources[i] = int32(rng.Intn(n))
			rows[i] = infRow(n)
			rows[i][sources[i]] = 0
			want[i] = infRow(n)
			wantOps += BFSInto(g, sources[i], want[i], mask, &qb)
		}
		workers := 1 + int(workersRaw)%3
		if ops := MultiSourceBFS(g, sources, rows, mask, workers); ops != wantOps {
			t.Fatalf("n=%d sources=%d workers=%d: ops %d, per-source BFS %d", n, len(sources), workers, ops, wantOps)
		}
		for i := range sources {
			for v := 0; v < n; v++ {
				if rows[i][v] != want[i][v] {
					t.Fatalf("n=%d sources=%d workers=%d: row %d (source %d) dist[%d] = %d, want %d",
						n, len(sources), workers, i, sources[i], v, rows[i][v], want[i][v])
				}
			}
		}
	})
}
