package anytime_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"anytime"
)

func TestPublicAPIStaticMatchesOracle(t *testing.T) {
	g, err := anytime.ScaleFreeGraph(150, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	opts := anytime.DefaultOptions()
	opts.P = 4
	opts.Seed = 9
	e, err := anytime.NewEngine(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	snap := e.Snapshot()
	oracle := anytime.Closeness(g)
	for v := range oracle {
		diff := snap.Closeness[v] - oracle[v]
		if diff > 1e-15 || diff < -1e-15 {
			t.Fatalf("closeness[%d]: engine %g vs oracle %g", v, snap.Closeness[v], oracle[v])
		}
	}
}

func TestPublicAPIDynamicFlow(t *testing.T) {
	g, err := anytime.WeightedScaleFreeGraph(120, 2, 1, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []anytime.Strategy{
		anytime.RoundRobinPS, anytime.CutEdgePS, anytime.RepartitionS,
	} {
		opts := anytime.DefaultOptions()
		opts.P = 4
		opts.Seed = 11
		opts.Strategy = strat
		e, err := anytime.NewEngine(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := anytime.CommunityBatch(g, 20, 1.5, 13)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.QueueBatch(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Path(0, 5); !errors.Is(err, anytime.ErrNotConverged) {
			t.Fatalf("%v: Path with a queued batch: got %v, want ErrNotConverged", strat, err)
		}
		e.Run()
		if !e.Converged() {
			t.Fatalf("%v: not converged", strat)
		}
		oracle := anytime.Closeness(e.Graph())
		snap := e.Snapshot()
		for v := range oracle {
			diff := snap.Closeness[v] - oracle[v]
			if diff > 1e-15 || diff < -1e-15 {
				t.Fatalf("%v: closeness[%d] mismatch", strat, v)
			}
		}
	}
}

func TestPublicAPIGeneratorsAndIO(t *testing.T) {
	g, labels, err := anytime.CommunityGraph(120, 4, 0.25, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 120 {
		t.Fatalf("labels = %d", len(labels))
	}
	var buf bytes.Buffer
	if err := anytime.WritePajek(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := anytime.ReadPajek(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatal("pajek round trip lost edges")
	}
	buf.Reset()
	if err := anytime.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	if _, err := anytime.ReadEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	found, k, q := anytime.Communities(g, 3)
	if len(found) != 120 || k < 2 || q < 0.3 {
		t.Fatalf("communities: k=%d q=%g", k, q)
	}
}

func TestPublicAPIPartitioners(t *testing.T) {
	g, err := anytime.ScaleFreeGraph(200, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range []anytime.Partitioner{
		anytime.MultilevelPartitioner(5),
		anytime.RoundRobinPartitioner(),
		anytime.GreedyPartitioner(5),
	} {
		p, err := pt.Partition(g, 4)
		if err != nil {
			t.Fatalf("%s: %v", pt.Name(), err)
		}
		if cut := anytime.EdgeCut(g, p); cut <= 0 || cut > g.NumEdges() {
			t.Fatalf("%s: cut %d", pt.Name(), cut)
		}
	}
}

func TestPublicAPIModelAndCentrality(t *testing.T) {
	m := anytime.GigabitClusterModel(16)
	if m.P != 16 || m.Validate() != nil {
		t.Fatalf("model = %+v", m)
	}
	g, _ := anytime.ScaleFreeGraph(60, 2, 7)
	if len(anytime.Harmonic(g)) != 60 {
		t.Fatal("centrality lengths wrong")
	}
}

// ExampleNewEngine demonstrates the static anytime analysis.
func ExampleNewEngine() {
	g, _ := anytime.ScaleFreeGraph(100, 2, 1)
	opts := anytime.DefaultOptions()
	opts.P = 4
	opts.Seed = 1
	e, _ := anytime.NewEngine(g, opts)
	e.Run()
	snap := e.Snapshot()
	fmt.Println("converged:", snap.Converged)
	fmt.Println("vertices ranked:", len(snap.Closeness))
	// Output:
	// converged: true
	// vertices ranked: 100
}

// ExampleEngine_QueueBatch demonstrates the anywhere property: vertex
// additions absorbed mid-analysis.
func ExampleEngine_QueueBatch() {
	g, _ := anytime.ScaleFreeGraph(100, 2, 1)
	opts := anytime.DefaultOptions()
	opts.P = 4
	opts.Seed = 1
	opts.Strategy = anytime.CutEdgePS
	e, _ := anytime.NewEngine(g, opts)
	e.Step() // analysis in progress...
	batch, _ := anytime.PreferentialBatch(g, 10, 2, 1, 2)
	_ = e.QueueBatch(batch) // ...when 10 new vertices arrive
	e.Run()
	fmt.Println("final graph size:", e.Graph().NumVertices())
	// Output:
	// final graph size: 110
}

// ExampleEngine_Path demonstrates shortest-path reconstruction from the
// converged distances.
func ExampleEngine_Path() {
	g := anytime.NewGraph(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(0, 3, 5) // longer direct edge
	opts := anytime.DefaultOptions()
	opts.P = 2
	e, _ := anytime.NewEngine(g, opts)
	e.Run()
	path, _ := e.Path(0, 3)
	fmt.Println(path)
	// Output:
	// [0 1 2 3]
}

// ExampleWriteCheckpoint demonstrates fault-tolerant save/restore.
func ExampleWriteCheckpoint() {
	g, _ := anytime.ScaleFreeGraph(60, 2, 1)
	opts := anytime.DefaultOptions()
	opts.P = 2
	opts.Seed = 1
	e, _ := anytime.NewEngine(g, opts)
	e.Step() // mid-analysis
	var buf bytes.Buffer
	_ = anytime.WriteCheckpoint(&buf, e)
	r, _ := anytime.RestoreEngine(&buf, opts)
	r.Run()
	fmt.Println("resumed and converged:", r.Snapshot().Converged)
	// Output:
	// resumed and converged: true
}

func TestPublicAPIMETIS(t *testing.T) {
	g, err := anytime.ScaleFreeGraph(50, 2, 17)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := anytime.WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := anytime.ReadMETIS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatal("METIS round trip lost edges")
	}
}

func TestPublicAPIStreams(t *testing.T) {
	base, err := anytime.GeometricGraph(120, 0.15, 19)
	if err != nil {
		t.Fatal(err)
	}
	s, err := anytime.GenerateStream(base, anytime.StreamConfig{Ticks: 20, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := anytime.WriteStream(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := anytime.ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(s.Events) {
		t.Fatal("stream round trip lost events")
	}
	opts := anytime.DefaultOptions()
	opts.P = 4
	opts.Seed = 19
	opts.Strategy = anytime.AutoPS
	e, err := anytime.NewEngine(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	windows, err := anytime.ReplayStream(e, back, 5)
	if err != nil {
		t.Fatal(err)
	}
	if windows == 0 || !e.Converged() {
		t.Fatalf("replay: windows=%d converged=%v", windows, e.Converged())
	}
	if len(e.History()) == 0 {
		t.Fatal("no step history recorded")
	}
}
