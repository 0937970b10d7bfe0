package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"anytime/internal/change"
	"anytime/internal/gen"
	"anytime/internal/graph"
	"anytime/internal/transport"
)

// refAbsorb is the reference for absorbEdges: the per-edge Fig. 3 loop,
// which broadcasts each edge's endpoint rows and, for an improving edge,
// has every processor walk all its rows through that one edge before the
// next edge is taken. It counts the scans into *scans.
func refAbsorb(e *Engine, scans *int) func(edges []resolvedEdge, dynamicCut bool) {
	var tgs edgeTargets
	return func(edges []resolvedEdge, dynamicCut bool) {
		for _, ed := range edges {
			if refAbsorbEdge(e, ed.u, ed.v, ed.w, dynamicCut, &tgs) {
				*scans++
			}
		}
	}
}

// refAbsorbEdge absorbs one edge and reports whether it improved D(u,v).
func refAbsorbEdge(e *Engine, u, v int, w graph.Weight, dynamicCut bool, tgs *edgeTargets) bool {
	e.metrics.EdgesAdded++
	if dynamicCut && e.part.Part[u] != e.part.Part[v] {
		e.metrics.NewCutEdges++
	}
	ownerU := int(e.part.Part[u])
	ownerV := int(e.part.Part[v])
	e.procs[ownerU].link(u, v)
	e.procs[ownerV].link(v, u)
	rowU := e.procs[ownerU].table.Row(int32(u))
	rowV := e.procs[ownerV].table.Row(int32(v))
	rowU.MarkShipFull()
	rowV.MarkShipFull()
	improves := graph.AddDist(rowU.D[int32(v)], 0) > w
	snapU := append([]graph.Dist(nil), rowU.D...)
	snapV := append([]graph.Dist(nil), rowV.D...)
	bytes := 4*e.g.NumVertices() + 8
	if _, err := e.mach.Broadcast(ownerU, transport.Message{Tag: transport.TagNewVertexRow, Bytes: bytes}); err != nil {
		e.fail(err)
		return false
	}
	if _, err := e.mach.Broadcast(ownerV, transport.Message{Tag: transport.TagNewVertexRow, Bytes: bytes}); err != nil {
		e.fail(err)
		return false
	}
	if !improves {
		return false
	}
	var tg *edgeTargets
	if e.converged {
		tgs.build(w, snapU, snapV)
		tg = tgs
	}
	ui, vi := int32(u), int32(v)
	e.mach.Parallel(func(pid int) {
		p := e.procs[pid]
		var ops int64
		for _, x := range p.table.Rows() {
			ops += relaxViaEdge(x, ui, vi, w, snapU, snapV, tg)
		}
		e.mach.Charge(pid, ops)
		addOps(&e.metrics.ChangeOps, ops)
	})
	e.mach.Barrier()
	return true
}

// queueEvent admits ev into e's queue through the Queue method of its kind.
func queueEvent(t *testing.T, e *Engine, ev change.Event) {
	t.Helper()
	var err error
	switch {
	case ev.Batch != nil:
		err = e.QueueBatch(ev.Batch)
	case len(ev.EdgeAdds) > 0:
		err = e.QueueEdgeAdds(ev.EdgeAdds...)
	case len(ev.WeightChanges) > 0:
		err = e.QueueEdgeWeightChanges(ev.WeightChanges...)
	default:
		t.Fatalf("unexpected event %s", describeEvent(ev))
	}
	if err != nil {
		t.Fatal(err)
	}
}

// applyNext applies e's first queued event the way Step's tail does, with
// absorb taking its edges.
func applyNext(e *Engine, absorb func([]resolvedEdge, bool)) {
	ev := e.queue[0]
	e.queue = e.queue[1:]
	e.applyEvent(ev, absorb)
}

// sameAbsorbState reports the first difference between the two engines'
// DV state, cut rows, change counters and LogP clocks and traffic. The
// traffic's Steps count is left out: absorbEdges makes one Parallel per
// window, the per-edge loop one per improving edge.
func sameAbsorbState(a, b *Engine) string {
	for pid := range a.procs {
		pa, pb := a.procs[pid], b.procs[pid]
		if !slices.Equal(pa.cut, pb.cut) {
			return fmt.Sprintf("processor %d cut rows %v, reference %v", pid, pa.cut, pb.cut)
		}
		ra, rb := pa.table.Rows(), pb.table.Rows()
		if len(ra) != len(rb) {
			return fmt.Sprintf("processor %d has %d rows, reference %d", pid, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i].Owner != rb[i].Owner || len(ra[i].D) != len(rb[i].D) || len(ra[i].F) != len(rb[i].F) {
				return fmt.Sprintf("processor %d row %d: shape differs", pid, i)
			}
			if d := sameRow(ra[i], rb[i]); d != "" {
				return fmt.Sprintf("processor %d row %d: %s", pid, ra[i].Owner, d)
			}
		}
		if ta, tb := a.mach.ProcTime(pid), b.mach.ProcTime(pid); ta != tb {
			return fmt.Sprintf("processor %d clock %v, reference %v", pid, ta, tb)
		}
		if ta, tb := a.mach.BusyTime(pid), b.mach.BusyTime(pid); ta != tb {
			return fmt.Sprintf("processor %d busy %v, reference %v", pid, ta, tb)
		}
	}
	ma, mb := a.Metrics(), b.Metrics()
	if ma.ChangeOps != mb.ChangeOps || ma.EdgesAdded != mb.EdgesAdded || ma.NewCutEdges != mb.NewCutEdges {
		return fmt.Sprintf("change ops/edges/new cut %d/%d/%d, reference %d/%d/%d",
			ma.ChangeOps, ma.EdgesAdded, ma.NewCutEdges, mb.ChangeOps, mb.EdgesAdded, mb.NewCutEdges)
	}
	ma.Comm.Steps, mb.Comm.Steps = 0, 0
	if ma.Comm != mb.Comm {
		return fmt.Sprintf("traffic %+v, reference %+v", ma.Comm, mb.Comm)
	}
	if a.exact != b.exact || a.converged != b.converged {
		return fmt.Sprintf("exact/converged %v/%v, reference %v/%v", a.exact, a.converged, b.exact, b.converged)
	}
	return ""
}

// absorbEvents builds the events of one equivalence case from g (the
// engines' graph before the first event) with seed: a small
// batch, edge additions that re-add existing edges at the same, a lighter
// and a heavier weight beside new weight-3 edges, weight decreases of
// those new edges, a larger batch, and a decrease beside an increase (the
// decrease is absorbed, then the increase resets the IA).
func absorbEvents(t *testing.T, g *graph.Graph, seed int64, w gen.Weights) []change.Event {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	small, err := gen.CommunityBatch(g, 4, 1.5, w, seed)
	if err != nil {
		t.Fatal(err)
	}
	var adds []change.EdgeAdd
	for i := 0; i < 6; i++ {
		u := rng.Intn(n)
		a := g.Neighbors(u)[rng.Intn(len(g.Neighbors(u)))]
		w := a.Weight + graph.Weight(i%3) - 1 // lighter, same, heavier
		if w < 1 {
			w = 1
		}
		adds = append(adds, change.EdgeAdd{U: int32(u), V: a.To, Weight: w})
	}
	var fresh []change.EdgeAdd
	for len(fresh) < 5 {
		u, v := rng.Intn(n), rng.Intn(n)
		if _, ok := g.EdgeWeight(u, v); ok || u == v {
			continue
		}
		fresh = append(fresh, change.EdgeAdd{U: int32(u), V: int32(v), Weight: 3})
	}
	adds = append(adds, fresh...)
	rng.Shuffle(len(adds), func(i, j int) { adds[i], adds[j] = adds[j], adds[i] })
	var lower []change.EdgeWeight
	for i, f := range fresh {
		lower = append(lower, change.EdgeWeight{U: f.U, V: f.V, Weight: graph.Weight(1 + i%2)})
	}
	large, err := gen.CommunityBatch(g, 12, 1.5, w, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return []change.Event{
		{Batch: small},
		{EdgeAdds: adds},
		{WeightChanges: lower},
		{Batch: large},
		{WeightChanges: []change.EdgeWeight{
			{U: fresh[1].U, V: fresh[1].V, Weight: 1},
			{U: fresh[0].U, V: fresh[0].V, Weight: 5},
		}},
	}
}

// TestAbsorbEdgesMatchesPerEdgeLoop applies the same events to twin
// engines, one absorbing with absorbEdges and one with the per-edge
// reference loop, and compares them after every event: every row's
// distances, frontier, FAll, dirty mark and pending window, the cut rows,
// the change counters, each processor's clock and all traffic counters
// but Steps. It covers exact starts (NewConverged, and the engine re-run
// to convergence before each event) and mid-convergence ones (events
// applied 0 or 2 RC steps after the previous), the three immediate-update
// placements (AutoPS repartitions the larger batch), P ∈ {1, 3, 4}, and
// unit and weighted graphs. A third twin absorbs in windows of two
// improving edges. The engines must end at the exact APSP.
func TestAbsorbEdgesMatchesPerEdgeLoop(t *testing.T) {
	for _, P := range []int{1, 3, 4} {
		for _, unit := range []bool{true, false} {
			for _, strat := range []Strategy{RoundRobinPS, CutEdgePS, AutoPS} {
				for _, rc := range []int{-1, 0, 2} {
					name := fmt.Sprintf("P%d/unit=%v/%v/rc%d", P, unit, strat, rc)
					t.Run(name, func(t *testing.T) {
						absorbTwinCase(t, P, unit, strat, rc)
					})
				}
			}
		}
	}
}

// absorbTwinCase runs one case of TestAbsorbEdgesMatchesPerEdgeLoop: rc < 0
// starts exact and re-converges before each event, rc >= 0 applies each
// event rc RC steps after the previous one.
func absorbTwinCase(t *testing.T, P int, unit bool, strat Strategy, rc int) {
	seed := int64(10*P) + int64(strat)
	w := gen.Weights{Min: 1, Max: 4}
	if unit {
		w = gen.Weights{Min: 1, Max: 1}
	}
	g, err := gen.BarabasiAlbert(90, 2, w, seed)
	if err != nil {
		t.Fatal(err)
	}
	gen.Connectify(g, seed)
	o := defaultTestOptions(P, seed)
	o.Strategy = strat
	build := New
	if rc < 0 {
		build = NewConverged
	}
	// a absorbs with absorbEdges, c in windows of two improving edges, b
	// with the reference
	var a, b, c *Engine
	for _, e := range []**Engine{&a, &b, &c} {
		if *e, err = build(g, o); err != nil {
			t.Fatal(err)
		}
	}
	scans := 0
	ref := refAbsorb(b, &scans)
	for i, ev := range absorbEvents(t, g, seed, w) {
		for _, e := range []*Engine{a, b, c} {
			if rc < 0 {
				e.Run()
			} else {
				for s := 0; s < rc; s++ {
					e.Step()
				}
			}
			queueEvent(t, e, ev)
		}
		applyNext(a, a.absorbEdges)
		applyNext(b, ref)
		applyNext(c, func(edges []resolvedEdge, dynamicCut bool) { c.absorbWindows(edges, dynamicCut, 2) })
		for name, e := range map[string]*Engine{"absorbEdges": a, "windows of 2": c} {
			if e.Err() != nil || b.Err() != nil {
				t.Fatalf("%s, event %d: errors %v / %v", name, i, e.Err(), b.Err())
			}
			if d := sameAbsorbState(e, b); d != "" {
				t.Fatalf("%s, after event %d (%s): %s", name, i, describeEvent(ev), d)
			}
		}
	}
	if scans < 10 {
		t.Fatalf("only %d edges improved: the case tests little", scans)
	}
	for _, e := range []*Engine{a, b, c} {
		e.Run()
	}
	for name, e := range map[string]*Engine{"absorbEdges": a, "windows of 2": c} {
		if d := sameAbsorbState(e, b); d != "" {
			t.Fatalf("%s, after convergence: %s", name, d)
		}
	}
	requireExact(t, a)
}
