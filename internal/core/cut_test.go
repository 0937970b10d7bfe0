package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"anytime/internal/change"
	"anytime/internal/fault"
	"anytime/internal/graph"
)

// referenceCut recomputes part id's cut rows from scratch: its vertices,
// ascending, with an edge into another part.
func referenceCut(g *graph.Graph, part *graph.Partition, id int) []int32 {
	var cut []int32
	for v := 0; v < g.NumVertices(); v++ {
		if int(part.Part[v]) != id {
			continue
		}
		for _, a := range g.Neighbors(v) {
			if int(part.Part[a.To]) != id {
				cut = append(cut, int32(v))
				break
			}
		}
	}
	return cut
}

// requireCutRows checks every processor's cut rows against referenceCut on
// the engine's current graph and partition.
func requireCutRows(t *testing.T, label string, e *Engine) {
	t.Helper()
	for pid, p := range e.procs {
		if p.part != e.part {
			t.Fatalf("%s: processor %d reads a stale partition", label, pid)
		}
		if want := referenceCut(e.g, e.part, pid); !slices.Equal(p.Cut(), want) {
			t.Fatalf("%s: processor %d cut rows %v, want %v", label, pid, p.Cut(), want)
		}
	}
}

// runCutChecked steps e to convergence, checking the cut rows after every
// step (each applied event and each crash or rejoin lands at a step end or
// start).
func runCutChecked(t *testing.T, label string, e *Engine) {
	t.Helper()
	requireCutRows(t, label+" before", e)
	for i := 0; !e.Converged(); i++ {
		if i == MaxRCSteps {
			t.Fatalf("%s: no convergence", label)
		}
		e.Step()
		if err := e.Err(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireCutRows(t, fmt.Sprintf("%s step %d", label, e.StepsTaken()), e)
	}
	requireExact(t, e)
}

// The cut rows follow every event kind under every placement strategy:
// batches extend them edge by edge (CutEdge-PS, RoundRobin-PS, AutoPS's
// small batches), repartitions and rebalances rebuild them, edge additions
// and weight decreases extend them, and weight increases, edge deletions
// and vertex deletions — which can shrink them — rebuild them. A crash and
// rejoin, and a checkpoint restore, keep them.
func TestCutRowsFollowEveryEvent(t *testing.T) {
	for _, strat := range []Strategy{RoundRobinPS, CutEdgePS, RepartitionS, AutoPS} {
		t.Run(strat.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			g := testGraph(t, 60, 7)
			o := defaultTestOptions(3, 7)
			o.Strategy = strat
			o.Faults = &fault.Plan{Crashes: []fault.Crash{{Proc: 1, Step: 6, DownFor: 2}}}
			e, err := New(g, o)
			if err != nil {
				t.Fatal(err)
			}
			runCutChecked(t, "initial", e)
			queue := func(label string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				runCutChecked(t, label, e)
			}
			batch := func() *change.VertexBatch {
				n := e.Graph().NumVertices()
				b := &change.VertexBatch{NumVertices: 4}
				for i := 0; i < 4; i++ {
					b.External = append(b.External, change.ExternalEdge{New: int32(i), Existing: int32(rng.Intn(n)), Weight: 2})
				}
				b.Internal = []change.InternalEdge{{A: 0, B: 1, Weight: 1}, {A: 2, B: 3, Weight: 3}}
				return b
			}
			queue("batch", e.QueueBatch(batch()))
			// A large batch: AutoPS takes Repartition-S for it.
			big := &change.VertexBatch{NumVertices: 40}
			for i := 0; i < 40; i++ {
				big.External = append(big.External, change.ExternalEdge{New: int32(i), Existing: int32(rng.Intn(60)), Weight: 1})
			}
			queue("large batch", e.QueueBatch(big))
			n := e.Graph().NumVertices()
			var cross change.EdgeAdd
			for cross.U == cross.V {
				u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
				if e.Partition().Part[u] != e.Partition().Part[v] {
					if _, ok := e.Graph().EdgeWeight(int(u), int(v)); !ok {
						cross = change.EdgeAdd{U: u, V: v, Weight: 3}
					}
				}
			}
			queue("cut edge addition", e.QueueEdgeAdds(cross))
			queue("weight decrease", e.QueueEdgeWeightChanges(change.EdgeWeight{U: cross.U, V: cross.V, Weight: 1}))
			queue("weight increase", e.QueueEdgeWeightChanges(change.EdgeWeight{U: cross.U, V: cross.V, Weight: 5}))
			queue("edge deletion", e.QueueEdgeDels(change.EdgeDel{U: cross.U, V: cross.V}))
			queue("vertex deletion", e.QueueVertexDel(e.procs[0].Cut()[0]))
			e.QueueRebalance()
			queue("rebalance", nil)
			queue("batch after rebalance", e.QueueBatch(batch()))
			if e.Metrics().Crashes != 1 {
				t.Fatalf("%d crashes, want the scheduled one", e.Metrics().Crashes)
			}

			var buf bytes.Buffer
			if err := e.WriteCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			r, err := Restore(&buf, o)
			if err != nil {
				t.Fatal(err)
			}
			requireCutRows(t, "restored", r)
			for pid := range e.procs {
				if !slices.Equal(r.procs[pid].Cut(), e.procs[pid].Cut()) {
					t.Fatalf("processor %d: restored cut rows %v, want %v", pid, r.procs[pid].Cut(), e.procs[pid].Cut())
				}
			}
			if err := r.QueueBatch(batch()); err != nil {
				t.Fatal(err)
			}
			runCutChecked(t, "batch after restore", r)
		})
	}
}

// A Pending edge must name a stream vertex of an applied or an earlier
// queued batch. One that names none is refused at admission: applying it
// would fail the engine for good.
func TestQueueBatchRefusesUnresolvablePending(t *testing.T) {
	e, err := New(testGraph(t, 30, 3), defaultTestOptions(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	bad := &change.VertexBatch{NumVertices: 1, Pending: []change.PendingEdge{{New: 0, EarlierBatchVertex: 5, Weight: 1}}}
	if err := e.QueueBatch(bad); err == nil {
		t.Fatal("a pending edge to stream vertex 5 of 0 was admitted")
	}
	if e.QueuedEvents() != 0 {
		t.Fatalf("%d events queued after a refusal", e.QueuedEvents())
	}
	// Stream vertices of batches still queued resolve: 0..3 after the first.
	first := &change.VertexBatch{NumVertices: 4, External: []change.ExternalEdge{{New: 0, Existing: 1, Weight: 2}}}
	second := &change.VertexBatch{NumVertices: 1, Pending: []change.PendingEdge{{New: 0, EarlierBatchVertex: 3, Weight: 1}}}
	beyond := &change.VertexBatch{NumVertices: 1, Pending: []change.PendingEdge{{New: 0, EarlierBatchVertex: 5, Weight: 1}}}
	if err := e.QueueBatch(first); err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(second); err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(beyond); err == nil {
		t.Fatal("a pending edge to stream vertex 5 of 5 was admitted")
	}
	e.Run()
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if !e.Converged() {
		t.Fatal("no convergence")
	}
	requireExact(t, e)
}
