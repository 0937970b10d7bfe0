package core

import (
	"fmt"
	"testing"

	"anytime/internal/change"
	"anytime/internal/fault"
)

// chaosWorkload queues the dynamic changes used by the chaos tests: a
// vertex batch and an edge-addition event, so every run takes several RC
// steps and exercises the anywhere path while faults are firing. Additions
// only: distance bounds stay monotone, so snapshot monotonicity is
// assertable outside degraded windows.
func chaosWorkload(t *testing.T, e *Engine) {
	t.Helper()
	n := e.Graph().NumVertices()
	b := &change.VertexBatch{NumVertices: 4}
	for i := 0; i < 4; i++ {
		b.External = append(b.External, change.ExternalEdge{
			New: int32(i), Existing: int32((i * 13) % n), Weight: 1 + int32(i%3),
		})
	}
	b.Internal = append(b.Internal, change.InternalEdge{A: 0, B: 3, Weight: 2})
	if err := e.QueueBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := e.QueueEdgeAdds(change.EdgeAdd{U: 1, V: int32(n / 2), Weight: 1}); err != nil {
		t.Fatal(err)
	}
}

// probeSteps measures how many RC steps the fault-free engine needs for
// the chaos workload, so crash schedules can target early/mid/late timing.
func probeSteps(t *testing.T, n int, p int, seed int64) int {
	t.Helper()
	e, err := New(testGraph(t, n, seed), defaultTestOptions(p, seed))
	if err != nil {
		t.Fatal(err)
	}
	chaosWorkload(t, e)
	steps := e.Run()
	if !e.Converged() {
		t.Fatalf("probe did not converge in %d steps", steps)
	}
	return e.StepsTaken()
}

// TestChaosSoak is the acceptance sweep: ≥3 crash timings × ≥4 message-
// fault mixes, every plan reconverging exactly to the sequential Dijkstra
// oracle, with anytime-snapshot monotonicity holding outside degraded
// windows. Run it under -race (`make race`).
func TestChaosSoak(t *testing.T) {
	const n, P = 80, 4
	const seed = 21
	total := probeSteps(t, n, P, seed)
	if total < 4 {
		t.Fatalf("probe run too short (%d steps) for crash scheduling", total)
	}
	timings := map[string]int{
		"early": 1,
		"mid":   total / 2,
		"late":  total - 1,
	}
	mixes := map[string]fault.Plan{
		"drop":    {Seed: 101, DropRate: 0.10},
		"dup":     {Seed: 102, DuplicateRate: 0.10},
		"delay":   {Seed: 103, DelayRate: 0.10},
		"mixture": {Seed: 104, DropRate: 0.05, DuplicateRate: 0.05, DelayRate: 0.05, CorruptRate: 0.05},
	}
	for tn, step := range timings {
		for mn, plan := range mixes {
			plan := plan
			plan.Crashes = []fault.Crash{{Proc: (step + 1) % P, Step: step, DownFor: 2}}
			t.Run(fmt.Sprintf("%s-crash/%s", tn, mn), func(t *testing.T) {
				opts := defaultTestOptions(P, seed)
				opts.Faults = &plan
				opts.shardEvery = 3
				e, err := New(testGraph(t, n, seed), opts)
				if err != nil {
					t.Fatal(err)
				}
				type obs struct {
					degraded bool
					harmonic []float64
				}
				var seen []obs
				e.SetStepHook(func(StepStats) {
					s := e.Snapshot()
					seen = append(seen, obs{s.Degraded, s.Harmonic})
				})
				chaosWorkload(t, e)
				steps := e.Run()
				if err := e.Err(); err != nil {
					t.Fatalf("engine error after %d steps: %v", steps, err)
				}
				if !e.Converged() {
					t.Fatalf("not converged after %d steps", steps)
				}
				requireExact(t, e)
				m := e.Metrics()
				if m.Crashes < 1 || m.Recoveries < 1 {
					t.Fatalf("crash schedule did not fire: crashes=%d recoveries=%d", m.Crashes, m.Recoveries)
				}
				if e.Degraded() {
					t.Fatal("engine still degraded after reconvergence")
				}
				if final := e.Snapshot(); final.Degraded || len(final.DownProcs) != 0 {
					t.Fatalf("final snapshot degraded=%v down=%v", final.Degraded, final.DownProcs)
				}
				sawDegraded := false
				for i := 1; i < len(seen); i++ {
					prev, cur := seen[i-1], seen[i]
					sawDegraded = sawDegraded || cur.degraded
					if prev.degraded || cur.degraded {
						continue // monotonicity is suspended while degraded
					}
					w := len(prev.harmonic)
					if len(cur.harmonic) < w {
						w = len(cur.harmonic)
					}
					for v := 0; v < w; v++ {
						if cur.harmonic[v] < prev.harmonic[v]-1e-9 {
							t.Fatalf("step %d: harmonic[%d] regressed %.12f -> %.12f outside a degraded window",
								i, v, prev.harmonic[v], cur.harmonic[v])
						}
					}
				}
				if !sawDegraded {
					t.Fatal("no degraded snapshot observed despite a scheduled crash")
				}
			})
		}
	}
}

// TestChaosZeroPlanBitIdentical pins the zero-fault plan to the
// pre-fault-layer path: identical distances, snapshots, and communication
// traffic. Virtual time is allowed to differ only by the recovery-shard
// writes the fault layer adds (the measured cost of resilience).
func TestChaosZeroPlanBitIdentical(t *testing.T) {
	const n, P, seed = 70, 4, 9
	run := func(withFaults bool) *Engine {
		opts := defaultTestOptions(P, seed)
		if withFaults {
			opts.Faults = &fault.Plan{Seed: 55} // all rates zero, no crashes
		}
		e, err := New(testGraph(t, n, seed), opts)
		if err != nil {
			t.Fatal(err)
		}
		chaosWorkload(t, e)
		e.Run()
		if !e.Converged() {
			t.Fatal("not converged")
		}
		return e
	}
	plain, faulted := run(false), run(true)
	dp, df := plain.Distances(), faulted.Distances()
	for v := range dp {
		for u := range dp[v] {
			if dp[v][u] != df[v][u] {
				t.Fatalf("dist[%d][%d] differs: %d vs %d", v, u, dp[v][u], df[v][u])
			}
		}
	}
	if plain.StepsTaken() != faulted.StepsTaken() {
		t.Fatalf("steps differ: %d vs %d", plain.StepsTaken(), faulted.StepsTaken())
	}
	mp, mf := plain.Metrics(), faulted.Metrics()
	if mp.Comm.Messages != mf.Comm.Messages || mp.Comm.Bytes != mf.Comm.Bytes ||
		mp.Comm.Chunks != mf.Comm.Chunks || mp.Comm.Broadcasts != mf.Comm.Broadcasts {
		t.Fatalf("comm differs:\nplain   %+v\nfaulted %+v", mp.Comm, mf.Comm)
	}
	if mf.Comm.Resends != 0 || mf.Comm.Dropped != 0 || mf.Comm.Failed != 0 {
		t.Fatalf("zero plan injected faults: %+v", mf.Comm)
	}
	if mf.ShardsWritten == 0 || mf.ShardBytes == 0 {
		t.Fatal("fault layer wrote no recovery shards")
	}
	if mf.VirtualTime < mp.VirtualTime {
		t.Fatalf("shard writes cannot reduce virtual time: %v < %v", mf.VirtualTime, mp.VirtualTime)
	}
}

// TestChaosDegradedLifecycle scripts one crash and watches the degraded
// flag: absent before the crash, set with the crashed processor listed
// while down, and cleared by reconvergence.
func TestChaosDegradedLifecycle(t *testing.T) {
	const n, P, seed = 60, 4, 5
	plan := &fault.Plan{Seed: 7, Crashes: []fault.Crash{{Proc: 2, Step: 1, DownFor: 2}}}
	opts := defaultTestOptions(P, seed)
	opts.Faults = plan
	opts.shardEvery = 2
	e, err := New(testGraph(t, n, seed), opts)
	if err != nil {
		t.Fatal(err)
	}
	chaosWorkload(t, e)
	if s := e.Snapshot(); s.Degraded || len(s.DownProcs) != 0 {
		t.Fatalf("pre-crash snapshot already degraded: %+v", s.DownProcs)
	}
	var sawDown bool
	e.SetStepHook(func(st StepStats) {
		s := e.Snapshot()
		if len(s.DownProcs) > 0 {
			sawDown = true
			if !s.Degraded {
				t.Errorf("step %d: processor down but snapshot not degraded", st.Step)
			}
			if s.DownProcs[0] != 2 {
				t.Errorf("step %d: down = %v, want [2]", st.Step, s.DownProcs)
			}
		}
	})
	e.Run()
	if !e.Converged() || e.Err() != nil {
		t.Fatalf("converged=%v err=%v", e.Converged(), e.Err())
	}
	if !sawDown {
		t.Fatal("never observed the processor down")
	}
	requireExact(t, e)
	m := e.Metrics()
	if m.Crashes != 1 || m.Recoveries != 1 {
		t.Fatalf("crashes=%d recoveries=%d, want 1/1", m.Crashes, m.Recoveries)
	}
	if e.Snapshot().Degraded {
		t.Fatal("snapshot still degraded after reconvergence")
	}
}

// TestChaosCorruptShardFails flips a byte in a recovery shard: the crash
// restore must refuse it with a clear error instead of resurrecting a
// silently wrong table.
func TestChaosCorruptShardFails(t *testing.T) {
	const n, P, seed = 50, 4, 3
	plan := &fault.Plan{Crashes: []fault.Crash{{Proc: 1, Step: 1, DownFor: 1}}}
	opts := defaultTestOptions(P, seed)
	opts.Faults = plan
	e, err := New(testGraph(t, n, seed), opts)
	if err != nil {
		t.Fatal(err)
	}
	chaosWorkload(t, e)
	e.shards[1][len(e.shards[1])/2] ^= 0x40 // bit-flip mid-shard
	e.Run()
	if e.Err() == nil {
		t.Fatal("corrupt shard restored without error")
	}
	if e.Step() {
		t.Fatal("failed engine kept stepping")
	}
}

// TestChaosRepeatedCrashesSameProc crashes the same processor twice with
// message loss active and still requires oracle-exact reconvergence.
func TestChaosRepeatedCrashesSameProc(t *testing.T) {
	const n, P, seed = 70, 4, 13
	plan := &fault.Plan{
		Seed:     31,
		DropRate: 0.05,
		Crashes: []fault.Crash{
			{Proc: 0, Step: 1, DownFor: 1},
			{Proc: 0, Step: 4, DownFor: 2},
		},
	}
	opts := defaultTestOptions(P, seed)
	opts.Faults = plan
	opts.shardEvery = 2
	e, err := New(testGraph(t, n, seed), opts)
	if err != nil {
		t.Fatal(err)
	}
	chaosWorkload(t, e)
	e.Run()
	if !e.Converged() || e.Err() != nil {
		t.Fatalf("converged=%v err=%v", e.Converged(), e.Err())
	}
	requireExact(t, e)
	if m := e.Metrics(); m.Crashes != 2 || m.Recoveries != 2 {
		t.Fatalf("crashes=%d recoveries=%d, want 2/2", m.Crashes, m.Recoveries)
	}
}
