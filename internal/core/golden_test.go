package core

import (
	"fmt"
	"testing"

	"anytime/internal/change"
	"anytime/internal/fault"
	"anytime/internal/gen"
	"anytime/internal/partition"
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
		"rows=%d fullrows=%d masked=%d "+
		"resends=%d dropped=%d duplicated=%d delayed=%d corrupted=%d failed=%d droppeddown=%d",
		int64(m.VirtualTime), m.DDOps, m.IAOps, m.RCOps, m.ChangeOps, m.RCSteps,
		m.Comm.Messages, m.Comm.Chunks, m.Comm.Bytes, m.Comm.Broadcasts, m.Comm.Barriers,
		m.NewCutEdges, m.RowsMigrated, m.Crashes, m.Recoveries, m.ShardBytes,
		rows, full, masked,
		m.Comm.Resends, m.Comm.Dropped, m.Comm.Duplicated, m.Comm.Delayed,
		m.Comm.Corrupted, m.Comm.Failed, m.Comm.DroppedDown)
}

// TestGoldenCounters pins the paper's figures inside the root module: five
// fixed-seed runs whose LogP virtual time and every deterministic counter
// were recorded before the per-processor RC unit and the event resolver
// were merged (the fault counters and mixed-fates before the simulator's
// lossy links moved into the transport fault plane). A refactor of the RC
// step, the recovery path, the fault plane or the event placement must
// leave every literal unchanged; a PR that means to move a figure updates
// the literal and says why.
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
			want: "virt=7742709 dd=3176 ia=38601 rc=6305985 change=0 steps=4 msgs=42 chunks=42 bytes=332704 bcasts=0 barriers=18 newcut=0 migrated=0 crashes=0 recoveries=0 shardbytes=0 rows=533 fullrows=338 masked=0 resends=0 dropped=0 duplicated=0 delayed=0 corrupted=0 failed=0 droppeddown=0",
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
			want: "virt=16603741 dd=3176 ia=131300 rc=771183 change=1880106 steps=3 msgs=306 chunks=306 bytes=314952 bcasts=94 barriers=154 newcut=28 migrated=0 crashes=0 recoveries=0 shardbytes=0 rows=389 fullrows=56 masked=224647 resends=0 dropped=0 duplicated=0 delayed=0 corrupted=0 failed=0 droppeddown=0",
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
			want: "virt=15719626 dd=3176 ia=39154 rc=14900893 change=29989 steps=9 msgs=87 chunks=87 bytes=615016 bcasts=0 barriers=44 newcut=46 migrated=3 crashes=0 recoveries=0 shardbytes=0 rows=992 fullrows=554 masked=75562 resends=0 dropped=0 duplicated=0 delayed=0 corrupted=0 failed=0 droppeddown=0",
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
				o.shardEvery = 2
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
			want: "virt=22288865 dd=3176 ia=36808 rc=9798786 change=1816626 steps=6 msgs=265 chunks=265 bytes=623216 bcasts=72 barriers=142 newcut=29 migrated=0 crashes=1 recoveries=1 shardbytes=466176 rows=820 fullrows=731 masked=0 resends=2 dropped=2 duplicated=0 delayed=0 corrupted=0 failed=0 droppeddown=6",
		},
		{
			// Every fate at once, a budget small enough that messages are
			// abandoned, and a crash: pins each of the seven fault counters.
			name: "mixed-fates",
			run: func(t *testing.T) *Engine {
				g := testGraph(t, 160, 41)
				o := defaultTestOptions(4, 41)
				o.Strategy = RoundRobinPS
				o.Faults = &fault.Plan{
					Seed:          11,
					DropRate:      0.2,
					DuplicateRate: 0.1,
					DelayRate:     0.1,
					CorruptRate:   0.1,
					ResendBudget:  2,
					Crashes:       []fault.Crash{{Proc: 1, Step: 2, DownFor: 1}},
				}
				o.shardEvery = 2
				e, err := New(g, o)
				if err != nil {
					t.Fatal(err)
				}
				b, err := gen.PreferentialBatch(g, 12, 2, 1, w, 41)
				if err != nil {
					t.Fatal(err)
				}
				for _, part := range gen.SplitBatch(b, 2) {
					if err := e.QueueBatch(part); err != nil {
						t.Fatal(err)
					}
				}
				e.Run()
				return e
			},
			want: "virt=25593524 dd=3176 ia=39136 rc=10266762 change=1498316 steps=8 msgs=266 chunks=266 bytes=642964 bcasts=68 barriers=144 newcut=26 migrated=0 crashes=1 recoveries=1 shardbytes=593664 rows=853 fullrows=719 masked=0 resends=14 dropped=17 duplicated=7 delayed=9 corrupted=4 failed=7 droppeddown=3",
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

// TestBatchPartitionerFollowsSeed: CutEdge-PS partitions each batch with
// the Options' final Seed, so options built from NewOptions and then
// re-seeded run exactly like a literal Options with the same Seed. The DD
// partitioner NewOptions fills in still captures seed 1 (a separate,
// known capture), so the literal takes the same one to isolate the batch
// partitioner.
func TestBatchPartitionerFollowsSeed(t *testing.T) {
	run := func(o Options) string {
		o.Strategy = CutEdgePS
		g := testGraph(t, 160, 31)
		e, err := NewConverged(g, o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen.CommunityBatch(g, 16, 1.5, gen.Weights{Min: 1, Max: 3}, 31)
		if err != nil {
			t.Fatal(err)
		}
		for _, half := range gen.SplitBatch(b, 2) {
			if err := e.QueueBatch(half); err != nil {
				t.Fatal(err)
			}
		}
		e.Run()
		requireExact(t, e)
		return goldenCounters(e)
	}
	fromDefaults := run(defaultTestOptions(4, 31))
	literal := run(Options{P: 4, Seed: 31, Workers: 2, Partitioner: partition.Multilevel{Seed: 1}})
	if fromDefaults != literal {
		t.Fatalf("re-seeded defaults and literal options diverged:\ndefaults %s\nliteral  %s", fromDefaults, literal)
	}
}
