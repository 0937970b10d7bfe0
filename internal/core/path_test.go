package core

import (
	"errors"
	"slices"
	"testing"

	"anytime/internal/gen"
	"anytime/internal/graph"
	"anytime/internal/sssp"
)

// tightWalk is the path Engine.Path must return, read off the oracle
// matrix d: from u, repeatedly the lowest-id neighbour x with w + d[x][t]
// == d[cur][t]. It returns nil when t is unreachable.
func tightWalk(g *graph.Graph, d [][]graph.Dist, u, t int) []int32 {
	if d[u][t] == graph.InfDist {
		return nil
	}
	path := []int32{int32(u)}
	for cur := u; cur != t; {
		next := -1
		for _, a := range g.Neighbors(cur) {
			if graph.AddDist(a.Weight, d[a.To][t]) == d[cur][t] && (next < 0 || int(a.To) < next) {
				next = int(a.To)
			}
		}
		path = append(path, int32(next))
		cur = next
	}
	return path
}

// TestPathTightEdgeWalk grows a unit-weight BA graph (every vertex pair at
// distance d has many shortest paths, so ties decide the walk) and a
// 1–3-weighted one by a community batch, and checks sampled paths of the
// converged engine: consecutive vertices are adjacent, the length equals
// the oracle distance, and the path is the lowest-id tight-edge walk (an
// unreachable pair is an error).
func TestPathTightEdgeWalk(t *testing.T) {
	for _, c := range []struct {
		name string
		w    gen.Weights
		p    int
	}{
		{"unit-ba", gen.Weights{}, 3},
		{"weighted-1-3", gen.Weights{Min: 1, Max: 3}, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, err := gen.BarabasiAlbert(120, 2, c.w, 61)
			if err != nil {
				t.Fatal(err)
			}
			o := defaultTestOptions(c.p, 61)
			o.Strategy = CutEdgePS
			e, err := New(g, o)
			if err != nil {
				t.Fatal(err)
			}
			b, err := gen.CommunityBatch(g, 12, 1.5, c.w, 62)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.QueueBatch(b); err != nil {
				t.Fatal(err)
			}
			e.Run()
			eg := e.Graph()
			exact := sssp.APSP(eg)
			n := eg.NumVertices()
			for u := 0; u < n; u += 5 {
				for v := 3; v < n; v += 7 {
					path, err := e.Path(int32(u), int32(v))
					if exact[u][v] == graph.InfDist {
						if err == nil {
							t.Fatalf("path %d->%d between components = %v", u, v, path)
						}
						continue
					}
					if err != nil {
						t.Fatalf("path %d->%d: %v", u, v, err)
					}
					var total graph.Dist
					for i := 1; i < len(path); i++ {
						w, ok := eg.EdgeWeight(int(path[i-1]), int(path[i]))
						if !ok {
							t.Fatalf("path %d->%d uses non-edge {%d,%d}", u, v, path[i-1], path[i])
						}
						total += w
					}
					if path[0] != int32(u) || path[len(path)-1] != int32(v) || total != exact[u][v] {
						t.Fatalf("path %d->%d = %v of length %d, want endpoints %d..%d and length %d", u, v, path, total, u, v, exact[u][v])
					}
					if want := tightWalk(eg, exact, u, v); !slices.Equal(path, want) {
						t.Fatalf("path %d->%d = %v, want the lowest-id tight-edge walk %v", u, v, path, want)
					}
				}
			}
		})
	}
}

// TestPathNotConverged: with a batch queued the distances are not exact,
// so Path refuses with ErrNotConverged; after Run it answers.
func TestPathNotConverged(t *testing.T) {
	g := testGraph(t, 50, 63)
	e, err := New(g, defaultTestOptions(2, 63))
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	b, err := gen.CommunityBatch(g, 5, 1.5, gen.Weights{Min: 1, Max: 3}, 63)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(b); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Path(0, 7); !errors.Is(err, ErrNotConverged) {
		t.Fatalf("Path with a queued batch: got %v, want ErrNotConverged", err)
	}
	e.Run()
	if _, err := e.Path(0, 7); err != nil {
		t.Fatalf("Path after Run: %v", err)
	}
}
