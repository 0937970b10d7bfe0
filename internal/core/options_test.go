package core

import (
	"testing"

	"anytime/internal/logp"
	"anytime/internal/partition"
)

func TestNewOptionsDefaults(t *testing.T) {
	o := NewOptions()
	if o.P != 8 || o.Workers != 2 || o.MaxMsgBytes != 64<<10 || o.tileSize != TileSize {
		t.Fatalf("defaults: %+v", o)
	}
	if o.Partitioner == nil {
		t.Fatal("partitioner not defaulted")
	}
	if o.Model.P != 8 || o.Model.Validate() != nil {
		t.Fatalf("model: %+v", o.Model)
	}
	if o.NoLocalRefine || o.ShipAllBoundary || o.ParallelComm || o.noFrontierMask {
		t.Fatal("ablation flags must default off")
	}
}

func TestOptionsCustomModelPreserved(t *testing.T) {
	o := Options{P: 4, Model: logp.Model{L: 1, O: 1, G: 1, P: 99, Compute: 1}}
	o = o.withDefaults()
	if o.Model.P != 4 {
		t.Fatalf("Model.P must follow P: %+v", o.Model)
	}
	if o.Model.L != 1 {
		t.Fatal("custom latency lost")
	}
}

func TestStrategyStrings(t *testing.T) {
	want := map[Strategy]string{
		RoundRobinPS: "RoundRobin-PS",
		CutEdgePS:    "CutEdge-PS",
		RepartitionS: "Repartition-S",
		AutoPS:       "Auto-PS",
		Strategy(9):  "Strategy(9)",
	}
	for s, w := range want {
		if s.String() != w {
			t.Fatalf("%d -> %q, want %q", int(s), s.String(), w)
		}
	}
}

func TestCustomPartitionerFlowsToDD(t *testing.T) {
	g := testGraph(t, 60, 163)
	o := defaultTestOptions(3, 163)
	o.Partitioner = partition.Blocked{}
	e, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	// Blocked assigns contiguous ranges: vertex 0 must be in part 0
	if e.Partition().Part[0] != 0 {
		t.Fatal("custom partitioner not used")
	}
	e.Run()
	requireExact(t, e)
}
