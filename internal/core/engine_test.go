package core

import (
	"testing"

	"anytime/internal/change"
	"anytime/internal/gen"
	"anytime/internal/graph"
	"anytime/internal/partition"
	"anytime/internal/sssp"
)

// testGraph builds a connected scale-free graph for engine tests.
func testGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbert(n, 2, gen.Weights{Min: 1, Max: 4}, seed)
	if err != nil {
		t.Fatalf("BarabasiAlbert: %v", err)
	}
	gen.Connectify(g, seed)
	return g
}

// requireExact verifies the engine's converged distances against the
// sequential Dijkstra oracle on the engine's own (possibly mutated) graph.
func requireExact(t *testing.T, e *Engine) {
	t.Helper()
	want := sssp.APSP(e.Graph())
	got := e.Distances()
	n := e.Graph().NumVertices()
	for v := 0; v < n; v++ {
		if got[v] == nil {
			if e.Alive(int32(v)) {
				t.Fatalf("vertex %d: no DV row", v)
			}
			continue
		}
		for u := 0; u < n; u++ {
			if !e.Alive(int32(u)) {
				continue
			}
			if got[v][u] != want[v][u] {
				t.Fatalf("dist[%d][%d] = %d, want %d", v, u, got[v][u], want[v][u])
			}
		}
	}
}

func defaultTestOptions(p int, seed int64) Options {
	o := NewOptions()
	o.P = p
	o.Seed = seed
	o.Workers = 2
	return o
}

// Unit-weight graphs take the heap-free BFS fast path in the IA phase. The
// switch must be invisible in results (exact distances), and the
// dynamic-change funnel must re-detect eligibility: adding a non-unit edge
// turns it off, deleting that edge turns it back on — staying exact
// throughout.
func TestUnitWeightBFSFastPath(t *testing.T) {
	g, err := gen.BarabasiAlbert(100, 2, gen.Weights{Min: 1, Max: 1}, 19)
	if err != nil {
		t.Fatal(err)
	}
	gen.Connectify(g, 19)
	e, err := New(g, defaultTestOptions(4, 19))
	if err != nil {
		t.Fatal(err)
	}
	if !e.unitWeight {
		t.Fatal("unit-weight graph not detected")
	}
	e.Run()
	requireExact(t, e)

	// a batch of unit-weight vertices keeps the fast path on (its IA sweep
	// runs BFS) and stays exact
	b, err := gen.PreferentialBatch(e.Graph(), 10, 2, 1, gen.Weights{Min: 1, Max: 1}, 23)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(b); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !e.unitWeight {
		t.Fatal("unit-weight batch disabled the fast path")
	}
	requireExact(t, e)

	// a weight-3 edge disqualifies the graph; Dijkstra takes over
	if err := e.QueueEdgeAdds(change.EdgeAdd{U: 0, V: 50, Weight: 3}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if e.unitWeight {
		t.Fatal("non-unit edge did not disable the fast path")
	}
	requireExact(t, e)

	// deleting it makes the graph unit-weight again
	if err := e.QueueEdgeDels(change.EdgeDel{U: 0, V: 50}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !e.unitWeight {
		t.Fatal("fast path did not re-enable after deletion")
	}
	requireExact(t, e)
}

func TestStaticConvergence(t *testing.T) {
	g := testGraph(t, 150, 7)
	e, err := New(g, defaultTestOptions(4, 7))
	if err != nil {
		t.Fatal(err)
	}
	steps := e.Run()
	if !e.Converged() {
		t.Fatalf("not converged after %d steps", steps)
	}
	requireExact(t, e)
}

func TestStaticConvergenceAcrossPartitioners(t *testing.T) {
	g := testGraph(t, 120, 11)
	parts := []partition.Partitioner{
		partition.RoundRobin{},
		partition.Blocked{},
		partition.Random{Seed: 3},
		partition.Greedy{Seed: 3},
		partition.Multilevel{Seed: 3},
	}
	for _, p := range parts {
		t.Run(p.Name(), func(t *testing.T) {
			o := defaultTestOptions(5, 11)
			o.Partitioner = p
			e, err := New(g, o)
			if err != nil {
				t.Fatal(err)
			}
			e.Run()
			requireExact(t, e)
		})
	}
}

func TestStaticConvergenceP1(t *testing.T) {
	g := testGraph(t, 60, 3)
	o := defaultTestOptions(1, 3)
	e, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	steps := e.Run()
	// With one processor the IA phase is already exact; one step detects it.
	if steps > 2 {
		t.Fatalf("P=1 took %d steps", steps)
	}
	requireExact(t, e)
}

func TestStaticNoLocalRefine(t *testing.T) {
	g := testGraph(t, 100, 5)
	o := defaultTestOptions(4, 5)
	o.NoLocalRefine = true
	e, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	requireExact(t, e)
}

func TestStaticShipAllBoundary(t *testing.T) {
	g := testGraph(t, 100, 6)
	o := defaultTestOptions(4, 6)
	o.ShipAllBoundary = true
	e, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	requireExact(t, e)
}

func vertexAdditionTest(t *testing.T, strat Strategy) {
	g := testGraph(t, 120, 13)
	o := defaultTestOptions(4, 13)
	o.Strategy = strat
	e, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	b, err := gen.CommunityBatch(g, 24, 1.5, gen.Weights{Min: 1, Max: 3}, 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(b); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !e.Converged() {
		t.Fatal("not converged after batch")
	}
	if e.Graph().NumVertices() != 120+24 {
		t.Fatalf("graph has %d vertices", e.Graph().NumVertices())
	}
	requireExact(t, e)
	m := e.Metrics()
	if m.VerticesAdded != 24 {
		t.Fatalf("VerticesAdded = %d", m.VerticesAdded)
	}
	if m.EdgesAdded == 0 {
		t.Fatal("no edges recorded")
	}
}

func TestVertexAdditionRoundRobinPS(t *testing.T) { vertexAdditionTest(t, RoundRobinPS) }
func TestVertexAdditionCutEdgePS(t *testing.T)    { vertexAdditionTest(t, CutEdgePS) }
func TestVertexAdditionRepartitionS(t *testing.T) { vertexAdditionTest(t, RepartitionS) }

// Additions injected mid-computation (before convergence) must still
// converge to the exact result — the anywhere property.
func TestVertexAdditionMidComputation(t *testing.T) {
	for _, strat := range []Strategy{RoundRobinPS, CutEdgePS, RepartitionS} {
		t.Run(strat.String(), func(t *testing.T) {
			g := testGraph(t, 100, 17)
			o := defaultTestOptions(4, 17)
			o.Strategy = strat
			e, err := New(g, o)
			if err != nil {
				t.Fatal(err)
			}
			e.Step() // RC0 only
			b, err := gen.PreferentialBatch(g, 15, 2, 1, gen.Weights{Min: 1, Max: 3}, 17)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.QueueBatch(b); err != nil {
				t.Fatal(err)
			}
			e.Run()
			requireExact(t, e)
		})
	}
}

// A stream of split batches with cross-batch (pending) edges must resolve
// and converge (the incremental-additions scenario, Fig. 8).
func TestIncrementalSplitBatches(t *testing.T) {
	for _, strat := range []Strategy{RoundRobinPS, CutEdgePS, RepartitionS} {
		t.Run(strat.String(), func(t *testing.T) {
			g := testGraph(t, 90, 19)
			o := defaultTestOptions(3, 19)
			o.Strategy = strat
			e, err := New(g, o)
			if err != nil {
				t.Fatal(err)
			}
			full, err := gen.CommunityBatch(g, 30, 1.2, gen.Weights{Min: 1, Max: 2}, 19)
			if err != nil {
				t.Fatal(err)
			}
			for _, part := range gen.SplitBatch(full, 5) {
				if err := e.QueueBatch(part); err != nil {
					t.Fatal(err)
				}
				e.Step()
			}
			e.Run()
			if e.Graph().NumVertices() != 90+30 {
				t.Fatalf("graph has %d vertices", e.Graph().NumVertices())
			}
			requireExact(t, e)
		})
	}
}

func TestAnytimeMonotonicHarmonic(t *testing.T) {
	g := testGraph(t, 150, 23)
	e, err := New(g, defaultTestOptions(6, 23))
	if err != nil {
		t.Fatal(err)
	}
	prev := e.Snapshot()
	for i := 0; i < 100 && !e.Converged(); i++ {
		e.Step()
		cur := e.Snapshot()
		for v := range cur.Harmonic {
			if cur.Harmonic[v] < prev.Harmonic[v] {
				t.Fatalf("step %d: harmonic closeness of %d decreased: %g -> %g",
					cur.Step, v, prev.Harmonic[v], cur.Harmonic[v])
			}
		}
		prev = cur
	}
	if !e.Converged() {
		t.Fatal("did not converge")
	}
}

// Distances must be valid upper bounds at every intermediate step.
func TestAnytimeUpperBounds(t *testing.T) {
	g := testGraph(t, 100, 29)
	e, err := New(g, defaultTestOptions(4, 29))
	if err != nil {
		t.Fatal(err)
	}
	exact := sssp.APSP(g)
	for i := 0; i < 100 && !e.Converged(); i++ {
		got := e.Distances()
		for v := range got {
			for u, d := range got[v] {
				if d < exact[v][u] {
					t.Fatalf("step %d: dist[%d][%d]=%d below exact %d", i, v, u, d, exact[v][u])
				}
			}
		}
		e.Step()
	}
}

func TestEdgeAdditionsAndDeletions(t *testing.T) {
	g := testGraph(t, 80, 31)
	e, err := New(g, defaultTestOptions(4, 31))
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	// add a shortcut edge between two far vertices
	if err := e.QueueEdgeAdds(change.EdgeAdd{U: 3, V: 77, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	requireExact(t, e)
	// then delete it again
	if err := e.QueueEdgeDels(change.EdgeDel{U: 3, V: 77}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	requireExact(t, e)
}

func TestVertexDeletion(t *testing.T) {
	g := testGraph(t, 80, 37)
	e, err := New(g, defaultTestOptions(4, 37))
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if err := e.QueueVertexDel(10); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if e.Alive(10) {
		t.Fatal("vertex 10 still alive")
	}
	if e.Graph().Degree(10) != 0 {
		t.Fatal("vertex 10 still has edges")
	}
	requireExact(t, e)
	snap := e.Snapshot()
	if snap.Closeness[10] != 0 {
		t.Fatalf("deleted vertex has closeness %g", snap.Closeness[10])
	}
}

func TestBaselineRestartMatches(t *testing.T) {
	g := testGraph(t, 80, 41)
	o := defaultTestOptions(4, 41)
	r, err := NewRestart(g, o)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	b, err := gen.PreferentialBatch(g, 12, 2, 1, gen.Weights{Min: 1, Max: 2}, 41)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(b); err != nil {
		t.Fatal(err)
	}
	e.Run()
	rd, ed := r.Distances(), e.Distances()
	for v := range rd {
		for u := range rd[v] {
			if rd[v][u] != ed[v][u] {
				t.Fatalf("restart vs engine mismatch at [%d][%d]: %d vs %d", v, u, rd[v][u], ed[v][u])
			}
		}
	}
	// the baseline must be more expensive in virtual time
	if r.Metrics().VirtualTime <= e.Metrics().VirtualTime {
		t.Logf("warning: restart virtual time %v not above engine %v (tiny instance)",
			r.Metrics().VirtualTime, e.Metrics().VirtualTime)
	}
}

func TestSnapshotMatchesOracleCloseness(t *testing.T) {
	g := testGraph(t, 70, 43)
	e, err := New(g, defaultTestOptions(4, 43))
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	snap := e.Snapshot()
	exact := sssp.APSP(g)
	for v := 0; v < g.NumVertices(); v++ {
		var sum int64
		for u, d := range exact[v] {
			if u != v && d != graph.InfDist {
				sum += int64(d)
			}
		}
		want := 0.0
		if sum > 0 {
			want = 1 / float64(sum)
		}
		if diff := snap.Closeness[v] - want; diff > 1e-15 || diff < -1e-15 {
			t.Fatalf("closeness[%d] = %g, want %g", v, snap.Closeness[v], want)
		}
	}
}

func TestEngineErrors(t *testing.T) {
	g := testGraph(t, 20, 47)
	if _, err := New(g, Options{P: 40}); err == nil {
		t.Fatal("expected error for P > n")
	}
	e, err := New(g, defaultTestOptions(2, 47))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(&change.VertexBatch{NumVertices: -1}); err == nil {
		t.Fatal("expected error for negative batch")
	}
	if err := e.QueueEdgeAdds(change.EdgeAdd{U: 0, V: 0, Weight: 1}); err == nil {
		t.Fatal("expected error for self-loop")
	}
	if err := e.QueueVertexDel(99); err == nil {
		t.Fatal("expected error for out-of-range deletion")
	}
}

func TestMetricsAccounting(t *testing.T) {
	g := testGraph(t, 100, 53)
	o := defaultTestOptions(4, 53)
	o.Strategy = CutEdgePS
	e, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	m0 := e.Metrics()
	if m0.IAOps == 0 || m0.RCOps == 0 || m0.Comm.Messages == 0 || m0.VirtualTime == 0 {
		t.Fatalf("missing counters: %+v", m0)
	}
	b, err := gen.CommunityBatch(g, 16, 1.5, gen.Weights{Min: 1, Max: 2}, 53)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(b); err != nil {
		t.Fatal(err)
	}
	e.Run()
	m1 := e.Metrics()
	if m1.ChangeOps == 0 {
		t.Fatal("no change ops recorded")
	}
	if m1.NewCutEdges < 0 {
		t.Fatalf("negative new cut edges for CutEdge-PS: %d", m1.NewCutEdges)
	}
	if len(m1.ProcVertices) != 4 || len(m1.ProcCutSizes) != 4 {
		t.Fatalf("load metrics not refreshed: %+v", m1)
	}
	total := 0
	for _, s := range m1.ProcVertices {
		total += s
	}
	if total != e.Graph().NumVertices() {
		t.Fatalf("proc vertices sum %d != %d", total, e.Graph().NumVertices())
	}
}

// Repeated repartitions injected mid-analysis, including with the
// local-refine ablation flag set (the engine must force refinement on for
// Repartition-S), must stay exact. This stresses the reduced dirty-set
// logic after partial-result migration.
func TestRepartitionStress(t *testing.T) {
	g := testGraph(t, 110, 61)
	o := defaultTestOptions(4, 61)
	o.Strategy = RepartitionS
	o.NoLocalRefine = true // must be overridden internally for exactness
	e, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		b, err := gen.CommunityBatch(e.Graph(), 18, 1.3, gen.Weights{Min: 1, Max: 3}, int64(61+round))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.QueueBatch(b); err != nil {
			t.Fatal(err)
		}
		e.Step() // inject while not converged
		e.Step()
	}
	e.Run()
	requireExact(t, e)
	m := e.Metrics()
	if m.Repartitions != 3 {
		t.Fatalf("repartitions = %d", m.Repartitions)
	}
}

// Label matching must keep migration bounded: repartitioning after a small
// addition should not relocate the majority of the graph.
func TestRepartitionLabelMatching(t *testing.T) {
	g := testGraph(t, 200, 67)
	o := defaultTestOptions(4, 67)
	o.Strategy = RepartitionS
	e, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	b, err := gen.PreferentialBatch(g, 10, 2, 1, gen.Weights{}, 67)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(b); err != nil {
		t.Fatal(err)
	}
	e.Run()
	requireExact(t, e)
	if m := e.Metrics(); m.RowsMigrated > 150 {
		t.Fatalf("label matching ineffective: %d of 200 rows migrated", m.RowsMigrated)
	}
}

func TestMatchPartLabelsIdentity(t *testing.T) {
	old := []int32{0, 0, 1, 1, 2, 2}
	// new partition identical up to a label permutation (0<->2)
	p := &graph.Partition{Part: []int32{2, 2, 1, 1, 0, 0}, K: 3}
	matchPartLabels(old, p)
	for v := range old {
		if p.Part[v] != old[v] {
			t.Fatalf("label matching failed: %v vs %v", p.Part, old)
		}
	}
}
