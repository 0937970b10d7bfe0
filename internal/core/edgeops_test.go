package core

import (
	"math/rand"
	"testing"

	"anytime/internal/dv"
	"anytime/internal/gen"
	"anytime/internal/graph"
	"anytime/internal/sssp"
)

// exactMatrix holds one row per vertex of g with its exact distances and
// next hops, dirty marks and frontiers clear: the state of a clean
// convergence.
func exactMatrix(g *graph.Graph) *dv.Matrix {
	n := g.NumVertices()
	m := dv.NewMatrix(n)
	sources := make([]int32, n)
	rows := make([][]graph.Dist, n)
	hops := make([][]int32, n)
	for v := 0; v < n; v++ {
		m.AddRow(int32(v))
	}
	for v, r := range m.Rows() { // views taken once the arena stops growing
		sources[v], rows[v], hops[v] = r.Owner, r.D, r.NH
	}
	sssp.MultiSourceHops(g, sources, rows, hops, nil, 1)
	m.ClearDirty()
	m.ClearFrontiers()
	return m
}

// sameRow reports the first way two rows differ: distances, next hops,
// frontier, dirty mark or pending ship window.
func sameRow(a, b *dv.Row) string {
	for t := range a.D {
		if a.D[t] != b.D[t] || a.NH[t] != b.NH[t] {
			return "distances or next hops"
		}
	}
	for w := range a.F {
		if a.F[w] != b.F[w] {
			return "frontier"
		}
	}
	aAll, aLo, aHi := a.PendingState()
	bAll, bLo, bHi := b.PendingState()
	if a.FAll != b.FAll || a.Dirty != b.Dirty || aAll != bAll || aLo != bLo || aHi != bHi {
		return "dirty mark or changed window"
	}
	return ""
}

// TestPrunedEdgeScanMatchesFullScan absorbs a stream of improving edges
// into two copies of an exact APSP matrix, one with the full Fig. 3 scan
// and one with the scan pruned to affected rows and targets: isolated new
// vertices attached to the graph, edges among the new vertices, lighter
// duplicates of existing edges and weight decreases, in random order.
// Every row must stay identical between the copies after every edge, the
// charged op counts too, and the state must end as the exact APSP of the
// grown graph (so each edge started from the precondition the pruning
// needs).
func TestPrunedEdgeScanMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := testGraph(t, 70, seed)
		rng := rand.New(rand.NewSource(seed))
		old := g.NumVertices()
		const k = 8
		first := g.AddVertices(k)
		type edge struct {
			u, v int
			w    graph.Weight
		}
		var edges []edge
		for b := first; b < first+k; b++ {
			for j := 0; j < 1+rng.Intn(3); j++ {
				edges = append(edges, edge{b, rng.Intn(old), graph.Weight(1 + rng.Intn(4))})
			}
			if b > first {
				edges = append(edges, edge{b, b - 1 - rng.Intn(b-first), graph.Weight(1 + rng.Intn(3))})
			}
		}
		for j := 0; j < 12; j++ {
			u := rng.Intn(old)
			a := g.Neighbors(u)[rng.Intn(len(g.Neighbors(u)))]
			// a lighter duplicate / weight decrease, or a heavier no-op
			edges = append(edges, edge{u, int(a.To), a.Weight - 1 + graph.Weight(rng.Intn(2))})
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

		fullM, prunedM := exactMatrix(g), exactMatrix(g)
		var tg edgeTargets
		scans, improved := 0, 0
		for _, ed := range edges {
			if ed.w < 1 {
				continue
			}
			changed, err := g.AddOrLowerEdge(ed.u, ed.v, ed.w)
			if err != nil {
				t.Fatal(err)
			}
			u, v := int32(ed.u), int32(ed.v)
			if !changed || fullM.Row(u).D[v] <= ed.w {
				continue // absorbEdge scans only edges that improve D(u,v)
			}
			snapU, snapV := dv.CopyRow(fullM.Row(u)), dv.CopyRow(fullM.Row(v))
			tg.build(ed.w, snapU.D, snapV.D)
			scans++
			for i, x := range fullM.Rows() {
				y := prunedM.Rows()[i]
				opsFull := relaxViaEdge(x, u, v, ed.w, snapU.D, snapV.D, nil)
				opsPruned := relaxViaEdge(y, u, v, ed.w, snapU.D, snapV.D, &tg)
				if opsFull != opsPruned {
					t.Fatalf("seed %d edge %v row %d: pruned scan charged %d ops, full %d", seed, ed, x.Owner, opsPruned, opsFull)
				}
				if diff := sameRow(x, y); diff != "" {
					t.Fatalf("seed %d edge %v row %d: pruned scan differs in %s", seed, ed, x.Owner, diff)
				}
				if x.Dirty {
					improved++
				}
			}
		}
		if scans == 0 || improved == 0 {
			t.Fatalf("seed %d: %d scans improved %d rows; the case tests nothing", seed, scans, improved)
		}
		want := sssp.APSP(g)
		for _, x := range fullM.Rows() {
			for tcol, d := range want[x.Owner] {
				if x.D[tcol] != d {
					t.Fatalf("seed %d: D(%d,%d) = %d after the edges, exact %d", seed, x.Owner, tcol, x.D[tcol], d)
				}
			}
		}
	}
}

// A batch queued before the engine first converges is applied at the end
// of an RC step that did not converge, so the Fig. 3 scan must take the
// full path; the engine must still reach the exact APSP of the grown graph.
func TestBatchBeforeConvergenceTakesFullScan(t *testing.T) {
	g := testGraph(t, 120, 29)
	e, err := New(g, defaultTestOptions(4, 29))
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.CommunityBatch(g, 16, 1.5, gen.Weights{Min: 1, Max: 3}, 29)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(b); err != nil {
		t.Fatal(err)
	}
	e.Run()
	applied := false
	for _, s := range e.History() {
		if s.ChangeApplied == "" {
			continue
		}
		applied = true
		if s.ConvergedAfter {
			t.Fatalf("step %d applied %s from a converged state; the test needs the full scan", s.Step, s.ChangeApplied)
		}
	}
	if !applied || !e.Converged() {
		t.Fatalf("batch applied %v, converged %v", applied, e.Converged())
	}
	requireExact(t, e)
}
