package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"anytime/internal/change"
	"anytime/internal/fault"
	"anytime/internal/gen"
	"anytime/internal/graph"
)

// fullScanSnapshot is the reference for Snapshot's cached aggregates: one
// sequential pass over every row of Distances(), in column order.
func fullScanSnapshot(e *Engine) (clo, harm []float64, reach []int, ecc []graph.Dist) {
	rows := e.Distances()
	n := len(rows)
	clo, harm, reach, ecc = make([]float64, n), make([]float64, n), make([]int, n), make([]graph.Dist, n)
	for v, row := range rows {
		ecc[v] = graph.InfDist
		var sum int64
		for t, d := range row {
			if d == graph.InfDist || t == v {
				continue
			}
			sum += int64(d)
			harm[v] += 1 / float64(d)
			reach[v]++
			if ecc[v] == graph.InfDist || d > ecc[v] {
				ecc[v] = d
			}
		}
		if sum > 0 {
			clo[v] = 1 / float64(sum)
		}
	}
	return clo, harm, reach, ecc
}

// requireSnapshotMatchesFullScan compares every Snapshot field the row
// caches feed with the full sequential scan, floats bit for bit.
func requireSnapshotMatchesFullScan(t *testing.T, e *Engine, label string) {
	t.Helper()
	s := e.Snapshot()
	clo, harm, reach, ecc := fullScanSnapshot(e)
	if len(s.Closeness) != len(clo) {
		t.Fatalf("%s: snapshot has %d vertices, want %d", label, len(s.Closeness), len(clo))
	}
	for v := range clo {
		switch {
		case math.Float64bits(s.Closeness[v]) != math.Float64bits(clo[v]):
			t.Fatalf("%s: closeness[%d] = %v, full scan %v", label, v, s.Closeness[v], clo[v])
		case math.Float64bits(s.Harmonic[v]) != math.Float64bits(harm[v]):
			t.Fatalf("%s: harmonic[%d] = %v, full scan %v", label, v, s.Harmonic[v], harm[v])
		case s.Reachable[v] != reach[v]:
			t.Fatalf("%s: reachable[%d] = %d, full scan %d", label, v, s.Reachable[v], reach[v])
		case s.Eccentricity[v] != ecc[v]:
			t.Fatalf("%s: eccentricity[%d] = %d, full scan %d", label, v, s.Eccentricity[v], ecc[v])
		}
	}
}

// stepChecked steps e until it converges, holding Snapshot to the full
// scan before the first step and after every one.
func stepChecked(t *testing.T, e *Engine, label string) {
	t.Helper()
	requireSnapshotMatchesFullScan(t, e, label+" start")
	for i := 0; i < 300; i++ {
		more := e.Step()
		requireSnapshotMatchesFullScan(t, e, fmt.Sprintf("%s step %d", label, e.StepsTaken()))
		if !more {
			break
		}
	}
	if !e.Converged() || e.Err() != nil {
		t.Fatalf("%s: converged=%v err=%v", label, e.Converged(), e.Err())
	}
}

// queueCommunity queues a k-vertex community batch grown off e's graph.
func queueCommunity(t *testing.T, e *Engine, k int, seed int64) {
	t.Helper()
	b, err := gen.CommunityBatch(e.Graph(), k, 1.5, gen.Weights{Min: 1, Max: 3}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(b); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotMatchesFullScan drives every path that writes DV state —
// static convergence, each placement strategy's batches, edge additions,
// weight changes, deletions, row migration, a crash with shard restore and
// rejoin, and a checkpoint restore — and holds the incrementally refreshed
// Snapshot to a full sequential scan after every step, at P = 1 and P = 4.
// The base graph has 120 vertices, so the first batch lands the width on
// 128 and the second on 192, both multiples of the 64-column prefix grid.
func TestSnapshotMatchesFullScan(t *testing.T) {
	const n, seed = 120, 61
	for _, p := range []int{1, 4} {
		opts := func(s Strategy) Options {
			o := defaultTestOptions(p, seed)
			o.Strategy = s
			return o
		}
		for _, s := range []Strategy{RoundRobinPS, CutEdgePS, RepartitionS, AutoPS} {
			t.Run(fmt.Sprintf("P=%d/%s", p, s), func(t *testing.T) {
				e, err := New(testGraph(t, n, seed), opts(s))
				if err != nil {
					t.Fatal(err)
				}
				stepChecked(t, e, "static")
				for i, k := range []int{8, 64, 5} {
					queueCommunity(t, e, k, int64(seed+i))
					stepChecked(t, e, fmt.Sprintf("batch %d", i))
				}
				requireExact(t, e)
			})
		}
		t.Run(fmt.Sprintf("P=%d/edges", p), func(t *testing.T) {
			e, err := New(testGraph(t, n, seed), opts(RoundRobinPS))
			if err != nil {
				t.Fatal(err)
			}
			stepChecked(t, e, "static")
			queueCommunity(t, e, 8, seed)
			stepChecked(t, e, "batch")
			g := e.Graph()
			u, v := int32(3), int32(g.NumVertices()-1)
			if g.HasEdge(int(u), int(v)) {
				t.Fatalf("edge %d-%d already present", u, v)
			}
			if err := e.QueueEdgeAdds(change.EdgeAdd{U: u, V: v, Weight: 1}); err != nil {
				t.Fatal(err)
			}
			stepChecked(t, e, "edge add")
			if err := e.QueueEdgeWeightChanges(change.EdgeWeight{U: u, V: v, Weight: 3}); err != nil {
				t.Fatal(err)
			}
			stepChecked(t, e, "weight increase")
			if err := e.QueueEdgeWeightChanges(change.EdgeWeight{U: u, V: v, Weight: 2}); err != nil {
				t.Fatal(err)
			}
			stepChecked(t, e, "weight decrease")
			if err := e.QueueEdgeDels(change.EdgeDel{U: u, V: v}); err != nil {
				t.Fatal(err)
			}
			stepChecked(t, e, "edge delete")
			if err := e.QueueVertexDel(7); err != nil {
				t.Fatal(err)
			}
			stepChecked(t, e, "vertex delete")
			requireExact(t, e)
		})
		t.Run(fmt.Sprintf("P=%d/rebalance", p), func(t *testing.T) {
			e, err := New(testGraph(t, n, seed), opts(CutEdgePS))
			if err != nil {
				t.Fatal(err)
			}
			stepChecked(t, e, "static")
			part := e.Partition()
			for v, deleted := 0, 0; v < n && deleted < 12; v++ {
				if part.Part[v] == part.Part[0] {
					if err := e.QueueVertexDel(int32(v)); err != nil {
						t.Fatal(err)
					}
					deleted++
				}
			}
			stepChecked(t, e, "deletions")
			queueCommunity(t, e, 8, seed)
			e.QueueRebalance()
			stepChecked(t, e, "rebalance")
			requireExact(t, e)
		})
		t.Run(fmt.Sprintf("P=%d/restore", p), func(t *testing.T) {
			o := opts(CutEdgePS)
			e1, err := New(testGraph(t, n, seed), o)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				e1.Step()
				requireSnapshotMatchesFullScan(t, e1, "before checkpoint")
			}
			var buf bytes.Buffer
			if err := e1.WriteCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			e, err := Restore(&buf, o)
			if err != nil {
				t.Fatal(err)
			}
			stepChecked(t, e, "restored")
			queueCommunity(t, e, 8, seed)
			stepChecked(t, e, "batch after restore")
			requireExact(t, e)
		})
	}
	t.Run("P=4/faults", func(t *testing.T) {
		o := defaultTestOptions(4, seed)
		o.Faults = &fault.Plan{
			Seed:     9,
			DropRate: 0.05,
			Crashes:  []fault.Crash{{Proc: 1, Step: 2, DownFor: 2}},
		}
		o.shardEvery = 2
		e, err := New(testGraph(t, n, seed), o)
		if err != nil {
			t.Fatal(err)
		}
		queueCommunity(t, e, 8, seed)
		stepChecked(t, e, "crash and rejoin")
		if m := e.Metrics(); m.Crashes != 1 || m.Recoveries != 1 {
			t.Fatalf("crashes=%d recoveries=%d, want 1/1", m.Crashes, m.Recoveries)
		}
		requireExact(t, e)
	})
}

// TestSnapshotRescanCount pins how many DV cells Snapshot reads: all of
// them on a cold engine, none when nothing was written since the last
// Snapshot, and a small share after a 16-vertex CutEdge-PS community batch
// absorbed by a warm-started BA n=1000 engine (the absorb_cutedge shape).
func TestSnapshotRescanCount(t *testing.T) {
	g, err := gen.BarabasiAlbert(1000, 3, gen.Weights{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.CommunityBatch(g, 16, 1.5, gen.Weights{}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptions()
	o.P, o.Workers, o.Seed, o.Strategy = 4, 1, 500, CutEdgePS
	e, err := NewConverged(g, o)
	if err != nil {
		t.Fatal(err)
	}
	read := func() int64 {
		before := e.snapshotCells.Load()
		e.Snapshot()
		return e.snapshotCells.Load() - before
	}
	if got, want := read(), int64(1000*1000); got != want {
		t.Fatalf("cold snapshot read %d cells, want rows × cols = %d", got, want)
	}
	if got := read(); got != 0 {
		t.Fatalf("repeated snapshot read %d cells, want 0", got)
	}
	if err := e.QueueBatch(b); err != nil {
		t.Fatal(err)
	}
	e.Run()
	n := int64(e.Graph().NumVertices())
	got := read()
	if got > n*n/10 {
		t.Fatalf("snapshot after a 16-vertex batch read %d of %d cells (%.1f %%), want ≤ 10 %%",
			got, n*n, 100*float64(got)/float64(n*n))
	}
	t.Logf("snapshot after a 16-vertex batch read %d of %d cells (%.1f %%)", got, n*n, 100*float64(got)/float64(n*n))
	if got := read(); got != 0 {
		t.Fatalf("repeated snapshot read %d cells, want 0", got)
	}
}
