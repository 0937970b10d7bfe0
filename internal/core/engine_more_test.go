package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"anytime/internal/centrality"
	"anytime/internal/change"
	"anytime/internal/gen"
	"anytime/internal/graph"
	"anytime/internal/obs"
	"anytime/internal/sssp"
)

// Engine runs must be fully deterministic for a fixed seed even though
// processors execute as concurrent goroutines (they own disjoint state and
// message order is schedule-defined).
func TestEngineDeterministic(t *testing.T) {
	run := func() ([][]graph.Dist, Metrics) {
		g := testGraph(t, 130, 71)
		o := defaultTestOptions(4, 71)
		o.Strategy = CutEdgePS
		e, err := New(g, o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen.CommunityBatch(g, 20, 1.5, gen.Weights{Min: 1, Max: 2}, 71)
		if err != nil {
			t.Fatal(err)
		}
		e.Step()
		if err := e.QueueBatch(b); err != nil {
			t.Fatal(err)
		}
		e.Run()
		return e.Distances(), e.Metrics()
	}
	d1, m1 := run()
	d2, m2 := run()
	for v := range d1 {
		for u := range d1[v] {
			if d1[v][u] != d2[v][u] {
				t.Fatalf("nondeterministic distance at [%d][%d]", v, u)
			}
		}
	}
	if m1.RCSteps != m2.RCSteps || m1.Comm.Messages != m2.Comm.Messages ||
		m1.VirtualTime != m2.VirtualTime || m1.NewCutEdges != m2.NewCutEdges {
		t.Fatalf("nondeterministic metrics: %+v vs %+v", m1, m2)
	}
}

// Property: on random small graphs with random dynamic batches, every
// strategy converges to the sequential oracle.
func TestQuickEngineMatchesOracle(t *testing.T) {
	f := func(seed int64, pRaw, kRaw, stratRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 40 + rng.Intn(40)
		p := int(pRaw)%4 + 1
		k := int(kRaw)%12 + 2
		strat := Strategy(int(stratRaw) % 3)
		g, err := gen.BarabasiAlbert(n, 2, gen.Weights{Min: 1, Max: 5}, seed)
		if err != nil {
			return false
		}
		gen.Connectify(g, seed)
		o := defaultTestOptions(p, seed)
		o.Strategy = strat
		e, err := New(g, o)
		if err != nil {
			return false
		}
		b, err := gen.PreferentialBatch(g, k, 2, 1, gen.Weights{Min: 1, Max: 3}, seed)
		if err != nil {
			return false
		}
		if rng.Intn(2) == 0 {
			e.Step()
		}
		if e.QueueBatch(b) != nil {
			return false
		}
		e.Run()
		want := sssp.APSP(e.Graph())
		got := e.Distances()
		for v := range got {
			for u := range got[v] {
				if got[v][u] != want[v][u] {
					return false
				}
			}
		}
		// The converged snapshot's measures equal the sequential oracles
		// bit for bit: both sum each row in column order.
		snap := e.Snapshot()
		clo, harm := centrality.Closeness(e.Graph()), centrality.Harmonic(e.Graph())
		for v := range clo {
			if math.Float64bits(snap.Closeness[v]) != math.Float64bits(clo[v]) ||
				math.Float64bits(snap.Harmonic[v]) != math.Float64bits(harm[v]) {
				t.Logf("seed %d: vertex %d closeness %v/%v harmonic %v/%v", seed, v, snap.Closeness[v], clo[v], snap.Harmonic[v], harm[v])
				return false
			}
		}
		return true
	}
	count := 20
	if v := os.Getenv("ANYTIME_QUICK_SOAK"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			count = n
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: count}); err != nil {
		t.Fatal(err)
	}
}

// failingPartitioner errors on graphs above a size threshold, exercising
// the Repartition-S fallback path.
type failingPartitioner struct{ threshold int }

func (failingPartitioner) Name() string { return "failing" }

func (f failingPartitioner) Partition(g *graph.Graph, k int) (*graph.Partition, error) {
	if g.NumVertices() > f.threshold {
		return nil, errors.New("injected partitioner failure")
	}
	p := graph.NewPartition(g.NumVertices(), k)
	for v := range p.Part {
		p.Part[v] = int32(v % k)
	}
	return p, nil
}

func TestRepartitionFallbackOnPartitionerFailure(t *testing.T) {
	g := testGraph(t, 90, 73)
	o := defaultTestOptions(3, 73)
	o.Strategy = RepartitionS
	o.Partitioner = failingPartitioner{threshold: 95} // DD works, repartition fails
	e, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	b, err := gen.PreferentialBatch(g, 10, 2, 1, gen.Weights{}, 73)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(b); err != nil {
		t.Fatal(err)
	}
	e.Run() // must fall back to round-robin placement and stay exact
	requireExact(t, e)
}

// Back-to-back queued events of different kinds must apply in order and
// stay exact.
func TestMixedEventQueue(t *testing.T) {
	g := testGraph(t, 90, 79)
	o := defaultTestOptions(4, 79)
	o.Strategy = CutEdgePS
	e, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := gen.PreferentialBatch(g, 8, 2, 1, gen.Weights{Min: 1, Max: 2}, 79)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(b1); err != nil {
		t.Fatal(err)
	}
	if err := e.QueueEdgeAdds(
		change.EdgeAdd{U: 5, V: 60, Weight: 2},
		change.EdgeAdd{U: 7, V: 55, Weight: 1},
	); err != nil {
		t.Fatal(err)
	}
	if err := e.QueueVertexDel(30); err != nil {
		t.Fatal(err)
	}
	e.Run()
	requireExact(t, e)
	if e.Graph().NumVertices() != 98 {
		t.Fatalf("vertices = %d", e.Graph().NumVertices())
	}
	if e.Alive(30) {
		t.Fatal("vertex 30 should be deleted")
	}
}

// A batch that references vertices of an earlier *queued* (not yet
// applied) batch through External edges must validate and apply.
func TestQueuedBatchChaining(t *testing.T) {
	g := testGraph(t, 60, 83)
	e, err := New(g, defaultTestOptions(3, 83))
	if err != nil {
		t.Fatal(err)
	}
	b1, err := gen.PreferentialBatch(g, 5, 2, 0, gen.Weights{}, 83)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(b1); err != nil {
		t.Fatal(err)
	}
	// b2 anchors on vertex 62, which only exists once b1 applies
	b2 := &change.VertexBatch{NumVertices: 2}
	b2.External = append(b2.External,
		change.ExternalEdge{New: 0, Existing: 62, Weight: 1},
		change.ExternalEdge{New: 1, Existing: 62, Weight: 2})
	if err := e.QueueBatch(b2); err != nil {
		t.Fatal(err)
	}
	e.Run()
	requireExact(t, e)
	if e.Graph().NumVertices() != 67 {
		t.Fatalf("vertices = %d", e.Graph().NumVertices())
	}
}

// Convergence with zero queued work: Run on a converged engine is a no-op.
func TestRunIdempotentAfterConvergence(t *testing.T) {
	g := testGraph(t, 60, 89)
	e, err := New(g, defaultTestOptions(3, 89))
	if err != nil {
		t.Fatal(err)
	}
	first := e.Run()
	if first == 0 {
		t.Fatal("first run did no steps")
	}
	if again := e.Run(); again != 0 {
		t.Fatalf("converged engine ran %d more steps", again)
	}
	steps := e.StepsTaken()
	if e.Step() {
		t.Fatal("Step on converged engine reported pending work")
	}
	if e.StepsTaken() != steps {
		t.Fatal("Step on converged engine advanced the counter")
	}
}

func TestWeightChanges(t *testing.T) {
	g := testGraph(t, 80, 97)
	e, err := New(g, defaultTestOptions(4, 97))
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	// pick an existing edge and decrease its weight
	var eu, ev int32
	var ew graph.Weight
	g.ForEachEdge(func(u, v int, w graph.Weight) {
		if w > 1 && eu == ev {
			eu, ev, ew = int32(u), int32(v), w
		}
	})
	if eu == ev {
		t.Skip("no weighted edge found")
	}
	if err := e.QueueEdgeWeightChanges(change.EdgeWeight{U: eu, V: ev, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	requireExact(t, e)
	// now increase it back above the original
	if err := e.QueueEdgeWeightChanges(change.EdgeWeight{U: eu, V: ev, Weight: ew + 3}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	requireExact(t, e)
	if w, _ := e.Graph().EdgeWeight(int(eu), int(ev)); w != ew+3 {
		t.Fatalf("weight = %d, want %d", w, ew+3)
	}
	// invalid requests are rejected
	if err := e.QueueEdgeWeightChanges(change.EdgeWeight{U: 0, V: 0, Weight: 1}); err == nil {
		t.Fatal("self-loop weight change should fail")
	}
	if err := e.QueueEdgeWeightChanges(change.EdgeWeight{U: 0, V: 1, Weight: 0}); err == nil {
		t.Fatal("zero weight should fail")
	}
}

func TestSnapshotEccentricityAndDiameter(t *testing.T) {
	// path 0-1-2-3-4: diameter 4, radius 2
	g := graph.New(5)
	for i := 0; i < 4; i++ {
		g.MustAddEdge(i, i+1, 1)
	}
	e, err := New(g, defaultTestOptions(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	snap := e.Snapshot()
	if snap.Diameter() != 4 {
		t.Fatalf("diameter = %d", snap.Diameter())
	}
	if snap.Radius() != 2 {
		t.Fatalf("radius = %d", snap.Radius())
	}
	if snap.Eccentricity[0] != 4 || snap.Eccentricity[2] != 2 {
		t.Fatalf("eccentricity = %v", snap.Eccentricity)
	}
}

// TestTraceEvents: the Options.Obs spans carry the engine's execution
// events — one DD span, IA, one RC-step span per step and the batch's
// change span — and each engine-wide span kind advances the virtual clock
// monotonically.
func TestTraceEvents(t *testing.T) {
	g := testGraph(t, 80, 127)
	o := defaultTestOptions(3, 127)
	tr := obs.NewTracer(obs.DefaultCapacity)
	o.Obs = tr
	e, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.PreferentialBatch(g, 6, 2, 0, gen.Weights{}, 127)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(b); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !e.Converged() {
		t.Fatal("engine did not converge")
	}
	kinds := map[obs.Kind]int{}
	lastVirt := map[obs.Kind]time.Duration{}
	for _, s := range tr.Spans() {
		kinds[s.Kind]++
		if s.Proc != -1 {
			continue
		}
		if last, ok := lastVirt[s.Kind]; ok && s.Virt < last {
			t.Fatalf("%v span virtual time went backwards: %v after %v", s.Kind, s.Virt, last)
		}
		lastVirt[s.Kind] = s.Virt
	}
	for _, want := range []obs.Kind{obs.KindDD, obs.KindIA, obs.KindRCStep, obs.KindChange} {
		if kinds[want] == 0 {
			t.Fatalf("missing %v spans: %v", want, kinds)
		}
	}
	if kinds[obs.KindDD] != 1 || kinds[obs.KindChange] != 1 {
		t.Fatalf("unexpected span multiplicity: %v", kinds)
	}
	if kinds[obs.KindRCStep] != e.StepsTaken() {
		t.Fatalf("rc-step spans %d != steps %d", kinds[obs.KindRCStep], e.StepsTaken())
	}
}

// AutoPS must pick CutEdge-PS for small batches and Repartition-S for
// large ones, staying exact either way.
func TestAutoStrategy(t *testing.T) {
	g := testGraph(t, 100, 131)
	o := defaultTestOptions(4, 131)
	o.Strategy = AutoPS
	e, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	small, err := gen.PreferentialBatch(g, 3, 2, 0, gen.Weights{}, 131)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(small); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if m := e.Metrics(); m.Repartitions != 0 {
		t.Fatalf("small batch triggered repartition: %+v", m)
	}
	big, err := gen.CommunityBatch(e.Graph(), 30, 1.5, gen.Weights{}, 131)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(big); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if m := e.Metrics(); m.Repartitions != 1 {
		t.Fatalf("large batch did not repartition: %+v", m)
	}
	requireExact(t, e)
}

// Reconstructed paths must be real paths whose lengths equal the exact
// distances, for every pair, including after dynamic changes.
func TestPathReconstruction(t *testing.T) {
	g := testGraph(t, 90, 137)
	o := defaultTestOptions(4, 137)
	o.Strategy = CutEdgePS
	e, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.CommunityBatch(g, 15, 1.5, gen.Weights{Min: 1, Max: 3}, 137)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(b); err != nil {
		t.Fatal(err)
	}
	e.Run()
	exact := sssp.APSP(e.Graph())
	n := e.Graph().NumVertices()
	for u := 0; u < n; u += 7 {
		for v := 0; v < n; v += 5 {
			path, err := e.Path(int32(u), int32(v))
			if exact[u][v] == graph.InfDist {
				if err == nil {
					t.Fatalf("path %d->%d should not exist", u, v)
				}
				continue
			}
			if err != nil {
				t.Fatalf("path %d->%d: %v", u, v, err)
			}
			var total graph.Dist
			for i := 1; i < len(path); i++ {
				w, ok := e.Graph().EdgeWeight(int(path[i-1]), int(path[i]))
				if !ok {
					t.Fatalf("path %d->%d uses non-edge {%d,%d}", u, v, path[i-1], path[i])
				}
				total += w
			}
			if total != exact[u][v] {
				t.Fatalf("path %d->%d length %d, want %d (path %v)", u, v, total, exact[u][v], path)
			}
			if path[0] != int32(u) || path[len(path)-1] != int32(v) {
				t.Fatalf("path endpoints wrong: %v", path)
			}
		}
	}
}

// Paths must survive repartitioning and checkpoints.
func TestPathAfterRepartitionAndRestore(t *testing.T) {
	g := testGraph(t, 80, 139)
	o := defaultTestOptions(3, 139)
	o.Strategy = RepartitionS
	e, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.CommunityBatch(g, 20, 1.3, gen.Weights{Min: 1, Max: 2}, 139)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(b); err != nil {
		t.Fatal(err)
	}
	e.Run()
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&buf, o)
	if err != nil {
		t.Fatal(err)
	}
	exact := sssp.APSP(r.Graph())
	for u := 0; u < r.Graph().NumVertices(); u += 11 {
		path, err := r.Path(int32(u), 95) // a dynamically added vertex
		if err != nil {
			t.Fatalf("path %d->95: %v", u, err)
		}
		var total graph.Dist
		for i := 1; i < len(path); i++ {
			w, _ := r.Graph().EdgeWeight(int(path[i-1]), int(path[i]))
			total += w
		}
		if total != exact[u][95] {
			t.Fatalf("restored path %d->95 length %d, want %d", u, total, exact[u][95])
		}
	}
}

func TestPathErrors(t *testing.T) {
	g := testGraph(t, 40, 149)
	e, err := New(g, defaultTestOptions(2, 149))
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if _, err := e.Path(-1, 3); err == nil {
		t.Fatal("negative endpoint accepted")
	}
	if _, err := e.Path(0, 99); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	p, err := e.Path(7, 7)
	if err != nil || len(p) != 1 || p[0] != 7 {
		t.Fatalf("self path = %v, %v", p, err)
	}
	if err := e.QueueVertexDel(3); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if _, err := e.Path(0, 3); err == nil {
		t.Fatal("path to deleted vertex accepted")
	}
}

// Rebalancing after deletions skew the load must restore balance, migrate
// rows, and stay exact — the paper's rebalancing future work.
func TestQueueRebalance(t *testing.T) {
	g := testGraph(t, 120, 151)
	o := defaultTestOptions(4, 151)
	e, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	// delete a swath of one processor's vertices to skew the load
	part := e.Partition()
	victim := part.Part[0]
	deleted := 0
	for v := 0; v < 120 && deleted < 18; v++ {
		if part.Part[v] == victim {
			if err := e.QueueVertexDel(int32(v)); err != nil {
				t.Fatal(err)
			}
			deleted++
		}
	}
	e.Run()
	requireExact(t, e)
	sizesBefore := e.Metrics().ProcVertices
	spreadBefore := spread(sizesBefore)

	e.QueueRebalance()
	e.Run()
	requireExact(t, e)
	m := e.Metrics()
	if m.Repartitions != 1 {
		t.Fatalf("rebalance did not run: %+v", m)
	}
	if spreadAfter := spread(m.ProcVertices); spreadAfter > spreadBefore {
		t.Fatalf("rebalance worsened spread: %d -> %d (%v -> %v)",
			spreadBefore, spreadAfter, sizesBefore, m.ProcVertices)
	}
	if e.Graph().NumVertices() != 120 {
		t.Fatalf("rebalance changed the vertex count: %d", e.Graph().NumVertices())
	}
}

func spread(sizes []int) int {
	min, max := sizes[0], sizes[0]
	for _, s := range sizes {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	return max - min
}

func TestStepHistory(t *testing.T) {
	g := testGraph(t, 80, 157)
	e, err := New(g, defaultTestOptions(3, 157))
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.PreferentialBatch(g, 6, 2, 0, gen.Weights{}, 157)
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	if err := e.QueueBatch(b); err != nil {
		t.Fatal(err)
	}
	e.Run()
	h := e.History()
	if len(h) != e.StepsTaken() {
		t.Fatalf("history %d entries, %d steps", len(h), e.StepsTaken())
	}
	if h[0].BoundaryMessages == 0 || h[0].RowsShipped == 0 || h[0].Bytes == 0 {
		t.Fatalf("first step recorded nothing: %+v", h[0])
	}
	sawBatch := false
	lastVirtual := int64(-1)
	for i, st := range h {
		if st.Step != i {
			t.Fatalf("step index mismatch at %d: %+v", i, st)
		}
		if int64(st.Virtual) < lastVirtual {
			t.Fatalf("virtual time regressed at step %d", i)
		}
		lastVirtual = int64(st.Virtual)
		if st.ChangeApplied == "vertex-batch(6)" {
			sawBatch = true
		}
	}
	if !sawBatch {
		t.Fatalf("batch application not recorded: %+v", h)
	}
	if !h[len(h)-1].ConvergedAfter {
		t.Fatal("final step not marked converged")
	}
}

// Paths between different components must be reported as nonexistent.
func TestPathDisconnected(t *testing.T) {
	g := graph.New(6)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(3, 4, 1)
	g.MustAddEdge(4, 5, 1)
	e, err := New(g, defaultTestOptions(2, 167))
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if _, err := e.Path(0, 5); err == nil {
		t.Fatal("cross-component path accepted")
	}
	p, err := e.Path(3, 5)
	if err != nil || len(p) != 3 {
		t.Fatalf("within-component path = %v, %v", p, err)
	}
}
