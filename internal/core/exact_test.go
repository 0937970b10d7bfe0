package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"anytime/internal/change"
	"anytime/internal/fault"
	"anytime/internal/gen"
	"anytime/internal/graph"
)

// exactPair drives two engines over one event stream in lockstep: count
// charges exact-state relax phases in closed form (exact.go), exec
// (forceExec) runs their sweeps. Everything but the executed-work counters
// must agree.
type exactPair struct {
	t           *testing.T
	label       string
	count, exec *Engine
	exactSteps  int // steps relaxed with the bit set
	splitSteps  int // exact steps over a graph of more than one component
}

func newExactPair(t *testing.T, label string, g *graph.Graph, o Options, converged bool) *exactPair {
	t.Helper()
	build := New
	if converged {
		build = NewConverged
	}
	c, err := build(g, o)
	if err != nil {
		t.Fatal(err)
	}
	o.forceExec = true
	x, err := build(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if c.exact != converged || x.exact != converged {
		t.Fatalf("%s: exact bit %v/%v after construction, want %v", label, c.exact, x.exact, converged)
	}
	return &exactPair{t: t, label: label, count: c, exec: x}
}

// queue admits the same event into both engines.
func (p *exactPair) queue(admit func(e *Engine) error) {
	p.t.Helper()
	for _, e := range []*Engine{p.count, p.exec} {
		if err := admit(e); err != nil {
			p.t.Fatalf("%s: %v", p.label, err)
		}
	}
}

// step runs one step on both engines and compares them; it returns the
// count engine's step statistics.
func (p *exactPair) step() StepStats {
	t := p.t
	t.Helper()
	exact := p.count.exact
	if p.exec.exact != exact {
		t.Fatalf("%s step %d: exact bit %v on the counting engine, %v on the executing one", p.label, p.count.StepsTaken(), exact, p.exec.exact)
	}
	before := p.exec.Distances()
	p.count.Step()
	p.exec.Step()
	label := fmt.Sprintf("%s step %d", p.label, p.count.StepsTaken()-1)
	if err := p.count.Err(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	hc, hx := p.count.History(), p.exec.History()
	sc, sx := hc[len(hc)-1], hx[len(hx)-1]
	if exact {
		p.exactSteps++
		if labelComponents(p.count.g).n > 1 {
			p.splitSteps++
		}
		if sc.RelaxExecOps != 0 {
			t.Fatalf("%s: exact step executed %d ops", label, sc.RelaxExecOps)
		}
		// The relax phase improved no row; with no event applied at the
		// end of the step, no cell moved at all.
		for _, x := range p.exec.procs {
			for i, ch := range x.changed {
				if ch {
					t.Fatalf("%s: executed, an exact step improved the row of vertex %d", label, x.table.Rows()[i].Owner)
				}
			}
		}
		if sx.ChangeApplied == "" && !reflect.DeepEqual(before, p.exec.Distances()) {
			t.Fatalf("%s: an exact step changed a cell when executed", label)
		}
	} else if sc.RelaxExecOps != sc.RelaxOps {
		t.Fatalf("%s: executed %d of %d charged ops on a non-exact step", label, sc.RelaxExecOps, sc.RelaxOps)
	}
	if sx.RelaxExecOps != sx.RelaxOps {
		t.Fatalf("%s: forced execution ran %d of %d charged ops", label, sx.RelaxExecOps, sx.RelaxOps)
	}
	sc.RelaxExecOps, sx.RelaxExecOps = 0, 0
	if !reflect.DeepEqual(sc, sx) {
		t.Fatalf("%s: step stats differ\ncount %+v\nexec  %+v", label, sc, sx)
	}
	mc, mx := p.count.Metrics(), p.exec.Metrics()
	mc.WallTime, mx.WallTime = 0, 0
	mc.RCExecOps, mx.RCExecOps = 0, 0
	if !reflect.DeepEqual(mc, mx) {
		t.Fatalf("%s: metrics differ\ncount %+v\nexec  %+v", label, mc, mx)
	}
	if !reflect.DeepEqual(p.count.Snapshot(), p.exec.Snapshot()) {
		t.Fatalf("%s: snapshots differ", label)
	}
	for pid, pc := range p.count.procs {
		rc, rx := pc.table.Rows(), p.exec.procs[pid].table.Rows()
		if len(rc) != len(rx) {
			t.Fatalf("%s: processor %d has %d rows, %d executed", label, pid, len(rc), len(rx))
		}
		for i, a := range rc {
			b := rx[i]
			if a.Owner != b.Owner || a.Dirty != b.Dirty || a.FAll != b.FAll ||
				!reflect.DeepEqual(a.D, b.D) || !reflect.DeepEqual(a.F, b.F) {
				t.Fatalf("%s: row of vertex %d differs from the executed run", label, a.Owner)
			}
		}
	}
	return sc
}

// run steps both engines to convergence.
func (p *exactPair) run() {
	p.t.Helper()
	for i := 0; !p.count.Converged(); i++ {
		if i == MaxRCSteps {
			p.t.Fatalf("%s: no convergence", p.label)
		}
		p.step()
	}
	if !p.exec.Converged() {
		p.t.Fatalf("%s: the executing engine did not converge", p.label)
	}
	requireExact(p.t, p.count)
}

// applyNext steps until the next queued event applies and returns that
// step's stats and whether the bit survived the event.
func (p *exactPair) applyNext() (StepStats, bool) {
	p.t.Helper()
	for i := 0; i < MaxRCSteps; i++ {
		if s := p.step(); s.ChangeApplied != "" {
			return s, p.count.exact
		}
	}
	p.t.Fatalf("%s: no event applied", p.label)
	return StepStats{}, false
}

// randomEdge picks an existing edge {u, v} of weight at least minW.
func randomEdge(t *testing.T, rng *rand.Rand, g *graph.Graph, minW graph.Weight) (int32, int32, graph.Weight) {
	t.Helper()
	for try := 0; try < 10000; try++ {
		u := rng.Intn(g.NumVertices())
		ns := g.Neighbors(u)
		if len(ns) == 0 {
			continue
		}
		a := ns[rng.Intn(len(ns))]
		if a.Weight >= minW {
			return int32(u), a.To, a.Weight
		}
	}
	t.Fatal("no edge to pick")
	return 0, 0, 0
}

// TestExactStepsMatchExecuted is the counted ≡ executed matrix of the
// exact-state steps: randomized streams of Fig. 3 absorptions (vertex
// batches under RoundRobin-PS, CutEdge-PS and AutoPS, edge additions,
// weight decreases), which keep the exact bit, then the events that must
// clear it (weight increase, edge deletion, Repartition-S batch, rebalance)
// and a batch applied mid-convergence. One run has a single processor
// (the serving engine's shape), and one starts from a graph of two
// components and absorbs a vertex with no edges and a batch with internal
// edges only, so that rows hold InfDist at pivot owners. The counting
// engine and the one forced to execute must agree on every step's stats,
// the metrics, the snapshot and every row; an executed exact step changes
// no cell, and the executed-work counters read 0 on exact steps and the
// charge elsewhere.
func TestExactStepsMatchExecuted(t *testing.T) {
	type run struct {
		strat     Strategy
		converged bool // start from NewConverged
		workers   int  // 1 relaxes inline, more through the worker pool
		seed      int64
		p         int
		split     bool // a second component, and batches that keep the graph split
	}
	runs := []run{
		{RoundRobinPS, false, 2, 5, 4, false},
		{CutEdgePS, false, 1, 6, 4, false},
		{CutEdgePS, true, 2, 7, 4, false},
		{AutoPS, false, 1, 8, 4, false},
		{CutEdgePS, true, 1, 9, 1, false},
		{CutEdgePS, false, 2, 10, 3, true},
	}
	mid := 0   // batches applied mid-convergence (a NewConverged engine's global IA reconverges at once)
	split := 0 // exact steps over a graph of more than one component
	for _, r := range runs {
		label := fmt.Sprintf("%v/converged=%v/workers=%d", r.strat, r.converged, r.workers)
		if r.p != 4 {
			label += fmt.Sprintf("/P=%d", r.p)
		}
		if r.split {
			label += "/split"
		}
		t.Run(label, func(t *testing.T) {
			rng := rand.New(rand.NewSource(r.seed))
			g := testGraph(t, 120, r.seed)
			if r.split {
				// a 12-vertex cycle beside the BA graph
				first := g.AddVertices(12)
				for i := 0; i < 12; i++ {
					g.MustAddEdge(first+i, first+(i+1)%12, graph.Weight(1+i%3))
				}
			}
			o := defaultTestOptions(r.p, r.seed)
			o.Strategy = r.strat
			o.Workers = r.workers
			p := newExactPair(t, label, g, o, r.converged)
			defer func() { split += p.splitSteps }()
			p.run()
			if !p.count.exact {
				t.Fatal("clean convergence did not set the exact bit")
			}
			if r.split {
				// Exact steps over new components: a vertex with no edges,
				// then a batch whose edges are all internal.
				for _, b := range []*change.VertexBatch{
					{NumVertices: 1},
					{NumVertices: 3, Internal: []change.InternalEdge{{A: 0, B: 1, Weight: 2}, {A: 1, B: 2, Weight: 1}}},
				} {
					p.queue(func(e *Engine) error { return e.QueueBatch(b) })
					if _, kept := p.applyNext(); !kept {
						t.Fatal("a batch without external edges cleared the exact bit")
					}
					p.run()
				}
			}

			// Fig. 3 absorptions from a clean convergence keep the bit.
			for i := 0; i < 8; i++ {
				switch rng.Intn(3) {
				case 0:
					p.queueBatch(rng, 2+rng.Intn(4)) // below AutoPS's threshold
				case 1:
					n := p.count.Graph().NumVertices()
					var adds []change.EdgeAdd
					for len(adds) < 1+rng.Intn(3) {
						if u, v := rng.Intn(n), rng.Intn(n); u != v {
							adds = append(adds, change.EdgeAdd{U: int32(u), V: int32(v), Weight: graph.Weight(1 + rng.Intn(4))})
						}
					}
					p.queue(func(e *Engine) error { return e.QueueEdgeAdds(adds...) })
				default:
					u, v, w := randomEdge(t, rng, p.count.Graph(), 2)
					ch := change.EdgeWeight{U: u, V: v, Weight: w - 1}
					p.queue(func(e *Engine) error { return e.QueueEdgeWeightChanges(ch) })
				}
				if _, kept := p.applyNext(); !kept {
					t.Fatalf("event %d cleared the exact bit", i)
				}
				p.run()
			}

			// Everything else clears it; each clearing event is followed by
			// a batch queued at once, which applies mid-convergence.
			clearing := []func(){
				func() {
					u, v, w := randomEdge(t, rng, p.count.Graph(), 1)
					ch := change.EdgeWeight{U: u, V: v, Weight: w + 2}
					p.queue(func(e *Engine) error { return e.QueueEdgeWeightChanges(ch) })
				},
				func() {
					u, v, _ := randomEdge(t, rng, p.count.Graph(), 1)
					p.queue(func(e *Engine) error { return e.QueueEdgeDels(change.EdgeDel{U: u, V: v}) })
				},
				func() { p.queue(func(e *Engine) error { e.QueueRebalance(); return nil }) },
			}
			if r.strat == AutoPS {
				// at least autoThreshold of the graph: AutoPS repartitions
				clearing = append(clearing, func() { p.queueBatch(rng, 12) })
			}
			for i, c := range clearing {
				c()
				p.queueBatch(rng, 3)
				if _, kept := p.applyNext(); kept {
					t.Fatalf("clearing event %d kept the exact bit", i)
				}
				// The batch applies mid-convergence unless one step
				// reconverged (a rebalance that moved little): then the
				// bit is set again and rightly kept.
				if s, kept := p.applyNext(); !s.ConvergedAfter {
					mid++
					if kept {
						t.Fatalf("batch after clearing event %d applied mid-convergence and kept the bit", i)
					}
				}
				p.run()
				if !p.count.exact {
					t.Fatalf("clearing event %d: the next clean convergence did not set the bit", i)
				}
			}
			if p.exactSteps < 8 {
				t.Fatalf("only %d exact steps", p.exactSteps)
			}
		})
	}
	if mid == 0 {
		t.Fatal("no batch applied mid-convergence")
	}
	if split == 0 {
		t.Fatal("no exact step ran over more than one component")
	}
}

// queueBatch queues one community batch of k vertices on the current
// graph into both engines.
func (p *exactPair) queueBatch(rng *rand.Rand, k int) {
	p.t.Helper()
	b, err := gen.CommunityBatch(p.count.Graph(), k, 1.5, gen.Weights{Min: 1, Max: 3}, rng.Int63())
	if err != nil {
		p.t.Fatal(err)
	}
	p.queue(func(e *Engine) error { return e.QueueBatch(b) })
}

// TestExactBitNeverSetWithFaultsOrWithoutRefine: with a fault injector, or
// with local refinement off, a clean convergence is no anchor the relax
// phase may count from, so every relax op runs.
func TestExactBitNeverSetWithFaultsOrWithoutRefine(t *testing.T) {
	g := testGraph(t, 80, 3)
	noRefine := defaultTestOptions(4, 3)
	noRefine.NoLocalRefine = true
	noRefine.Strategy = CutEdgePS
	faulted := defaultTestOptions(4, 3)
	faulted.Faults = &fault.Plan{Seed: 55} // all rates zero, no crashes
	for name, o := range map[string]Options{"NoLocalRefine": noRefine, "Faults": faulted} {
		for _, build := range []func(*graph.Graph, Options) (*Engine, error){New, NewConverged} {
			e, err := build(g, o)
			if err != nil {
				t.Fatal(err)
			}
			e.Run()
			if err := e.QueueEdgeAdds(change.EdgeAdd{U: 0, V: 79, Weight: 1}); err != nil {
				t.Fatal(err)
			}
			e.Run()
			if m := e.Metrics(); e.exact || m.RCExecOps != m.RCOps {
				t.Fatalf("%s: exact %v, executed %d of %d ops", name, e.exact, m.RCExecOps, m.RCOps)
			}
		}
	}
}

// FuzzExactSteps is the counted ≡ executed gate of the exact-state closed
// form: a random small graph, often of several components and isolated
// vertices, P ∈ {1, 2, 4} processors of 1 or 2 workers, under RoundRobin-PS
// or CutEdge-PS, absorbs a random stream of vertex batches (isolated
// vertices, internal-only and external edges), edge additions and weight
// decreases, each from a clean convergence. The counting engine and the
// one forced to execute must agree on every step's stats, the metrics, the
// snapshot and every row (exactPair.step), and each convergence must match
// the oracle.
func FuzzExactSteps(f *testing.F) {
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 24; i++ {
		ev := make([]byte, 1+rng.Intn(6))
		rng.Read(ev)
		f.Add(rng.Int63(), uint8(rng.Intn(40)), uint8(i), ev)
	}
	f.Fuzz(func(t *testing.T, seed int64, size, shape uint8, events []byte) {
		rng := rand.New(rand.NewSource(seed))
		procs := []int{1, 2, 4}[int(shape)%3]
		n := 4 + int(size)%40
		g := graph.New(n)
		for m := rng.Intn(2 * n); m > 0; m-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				if _, err := g.AddOrLowerEdge(u, v, graph.Weight(1+rng.Intn(4))); err != nil {
					t.Fatal(err)
				}
			}
		}
		o := defaultTestOptions(procs, seed)
		o.Workers = 1 + int(shape/3)%2
		o.Strategy = []Strategy{RoundRobinPS, CutEdgePS}[int(shape/6)%2]
		label := fmt.Sprintf("n=%d/P=%d/workers=%d/%v", n, procs, o.Workers, o.Strategy)
		p := newExactPair(t, label, g, o, shape&16 != 0)
		p.run()
		if len(events) > 8 {
			events = events[:8]
		}
		for _, b := range events {
			cur := p.count.Graph()
			nv := cur.NumVertices()
			switch b % 3 {
			case 0:
				batch := &change.VertexBatch{NumVertices: 1 + int(b/3)%4}
				for i := rng.Intn(2 * batch.NumVertices); i > 0; i-- {
					if a, c := rng.Intn(batch.NumVertices), rng.Intn(batch.NumVertices); a != c {
						batch.Internal = append(batch.Internal, change.InternalEdge{A: int32(a), B: int32(c), Weight: graph.Weight(1 + rng.Intn(4))})
					}
				}
				for i := rng.Intn(3); i > 0; i-- {
					batch.External = append(batch.External, change.ExternalEdge{New: int32(rng.Intn(batch.NumVertices)), Existing: int32(rng.Intn(nv)), Weight: graph.Weight(1 + rng.Intn(4))})
				}
				p.queue(func(e *Engine) error { return e.QueueBatch(batch) })
			case 1:
				u, v := rng.Intn(nv), rng.Intn(nv)
				if u == v {
					v = (u + 1) % nv
				}
				add := change.EdgeAdd{U: int32(u), V: int32(v), Weight: graph.Weight(1 + rng.Intn(4))}
				p.queue(func(e *Engine) error { return e.QueueEdgeAdds(add) })
			default:
				var ch *change.EdgeWeight
				cur.ForEachEdge(func(u, v int, w graph.Weight) {
					if ch == nil && w >= 2 && rng.Intn(4) == 0 {
						ch = &change.EdgeWeight{U: int32(u), V: int32(v), Weight: w - 1}
					}
				})
				if ch == nil {
					continue
				}
				p.queue(func(e *Engine) error { return e.QueueEdgeWeightChanges(*ch) })
			}
			if _, kept := p.applyNext(); !kept {
				t.Fatalf("%s: a Fig. 3 absorption from a clean convergence cleared the exact bit", label)
			}
			p.run()
		}
	})
}
