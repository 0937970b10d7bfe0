package core

import (
	"fmt"
	"testing"

	"anytime/internal/change"
	"anytime/internal/fault"
	"anytime/internal/gen"
)

// goldenCounters renders every deterministic counter of a finished run: the
// LogP virtual time, the per-phase op counts, the communication totals, the
// dynamic-change and recovery accounting, and the per-step shipping sums.
func goldenCounters(e *Engine) string {
	m := e.Metrics()
	var rows, full int
	var masked int64
	for _, s := range e.History() {
		rows += s.RowsShipped
		full += s.FullRowsShipped
		masked += s.MaskedOps
	}
	return fmt.Sprintf("virt=%d dd=%d ia=%d rc=%d change=%d steps=%d "+
		"msgs=%d chunks=%d bytes=%d bcasts=%d barriers=%d "+
		"newcut=%d migrated=%d crashes=%d recoveries=%d shardbytes=%d "+
		"rows=%d fullrows=%d masked=%d",
		int64(m.VirtualTime), m.DDOps, m.IAOps, m.RCOps, m.ChangeOps, m.RCSteps,
		m.Comm.Messages, m.Comm.Chunks, m.Comm.Bytes, m.Comm.Broadcasts, m.Comm.Barriers,
		m.NewCutEdges, m.RowsMigrated, m.Crashes, m.Recoveries, m.ShardBytes,
		rows, full, masked)
}

// TestGoldenCounters pins the paper's figures inside the root module: four
// fixed-seed runs whose LogP virtual time and every deterministic counter
// were recorded before the per-processor RC unit and the event resolver
// were merged. A refactor of the RC step, the recovery path or the event
// placement must leave every literal unchanged; a PR that means to move a
// figure updates the literal and says why.
func TestGoldenCounters(t *testing.T) {
	w := gen.Weights{Min: 1, Max: 3}
	cases := []struct {
		name string
		run  func(t *testing.T) *Engine
		want string
	}{
		{
			name: "static-ba-p4",
			run: func(t *testing.T) *Engine {
				e, err := New(testGraph(t, 160, 31), defaultTestOptions(4, 31))
				if err != nil {
					t.Fatal(err)
				}
				e.Run()
				return e
			},
			want: "virt=7742709 dd=3176 ia=38601 rc=6305985 change=0 steps=4 msgs=42 chunks=42 bytes=332704 bcasts=0 barriers=18 newcut=0 migrated=0 crashes=0 recoveries=0 shardbytes=0 rows=533 fullrows=338 masked=0",
		},
		{
			// Two halves of one community batch: the second half's Pending
			// edges resolve through the stream map, under CutEdge-PS.
			name: "converged-cutedge-batches",
			run: func(t *testing.T) *Engine {
				g := testGraph(t, 160, 33)
				o := defaultTestOptions(4, 33)
				o.Strategy = CutEdgePS
				e, err := NewConverged(g, o)
				if err != nil {
					t.Fatal(err)
				}
				b, err := gen.CommunityBatch(g, 16, 1.5, w, 33)
				if err != nil {
					t.Fatal(err)
				}
				for _, half := range gen.SplitBatch(b, 2) {
					if err := e.QueueBatch(half); err != nil {
						t.Fatal(err)
					}
				}
				e.Run()
				return e
			},
			want: "virt=16612481 dd=3176 ia=131300 rc=794143 change=1880106 steps=3 msgs=306 chunks=306 bytes=315864 bcasts=94 barriers=154 newcut=25 migrated=0 crashes=0 recoveries=0 shardbytes=0 rows=391 fullrows=57 masked=224335",
		},
		{
			name: "repartition-rebalance",
			run: func(t *testing.T) *Engine {
				g := testGraph(t, 160, 38)
				o := defaultTestOptions(4, 38)
				o.Strategy = RepartitionS
				e, err := New(g, o)
				if err != nil {
					t.Fatal(err)
				}
				e.Run()
				b, err := gen.CommunityBatch(g, 40, 1.5, w, 38)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.QueueBatch(b); err != nil {
					t.Fatal(err)
				}
				e.QueueRebalance()
				e.Run()
				return e
			},
			want: "virt=15719626 dd=3176 ia=39154 rc=14900893 change=29989 steps=9 msgs=87 chunks=87 bytes=615016 bcasts=0 barriers=44 newcut=46 migrated=3 crashes=0 recoveries=0 shardbytes=0 rows=992 fullrows=554 masked=75562",
		},
		{
			name: "roundrobin-faults",
			run: func(t *testing.T) *Engine {
				g := testGraph(t, 160, 37)
				o := defaultTestOptions(4, 37)
				o.Strategy = RoundRobinPS
				o.Faults = &fault.Plan{
					Seed:     5,
					DropRate: 0.05,
					Crashes:  []fault.Crash{{Proc: 2, Step: 2, DownFor: 2}},
				}
				o.ShardEvery = 2
				e, err := New(g, o)
				if err != nil {
					t.Fatal(err)
				}
				b, err := gen.PreferentialBatch(g, 12, 2, 1, w, 37)
				if err != nil {
					t.Fatal(err)
				}
				for _, part := range gen.SplitBatch(b, 3) {
					if err := e.QueueBatch(part); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.QueueEdgeAdds(change.EdgeAdd{U: 3, V: 90, Weight: 1}); err != nil {
					t.Fatal(err)
				}
				e.Run()
				return e
			},
			want: "virt=22438145 dd=3176 ia=36808 rc=9798786 change=1816626 steps=6 msgs=265 chunks=265 bytes=623216 bcasts=72 barriers=142 newcut=29 migrated=0 crashes=1 recoveries=1 shardbytes=918144 rows=820 fullrows=731 masked=0",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.run(t)
			if e.Err() != nil || !e.Converged() {
				t.Fatalf("run did not converge: err=%v", e.Err())
			}
			requireExact(t, e)
			if got := goldenCounters(e); got != tc.want {
				t.Errorf("counters moved:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}
