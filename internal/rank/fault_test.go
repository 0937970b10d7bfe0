package rank

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"anytime/internal/change"
	"anytime/internal/core"
	"anytime/internal/graph"
	"anytime/internal/partition"
	"anytime/internal/transport"
)

// runEventRanks runs P runners over the inproc fabric on the shared test
// graph, queues evs at rank 0 before the first step, drives every rank to
// convergence and returns rank 0's gathered matrix plus the runners. Each
// rank owns a private graph copy (events mutate it), exactly like separate
// OS processes.
func runEventRanks(t *testing.T, n, P int, seed int64, evs []change.Event) ([][]graph.Dist, []*Runner) {
	t.Helper()
	group := inprocGroup(P)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		dist [][]graph.Dist
		fail error
	)
	runners := make([]*Runner, P)
	for i := range group {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := func() error {
				r, err := New(group[i], Config{Graph: testGraph(t, n, seed), Seed: seed})
				if err != nil {
					return err
				}
				runners[i] = r
				if i == 0 {
					if err := r.QueueEvents(evs...); err != nil {
						return err
					}
				}
				if _, err := r.Run(); err != nil {
					return err
				}
				all, err := r.GatherDistances()
				if err != nil {
					return err
				}
				if i == 0 {
					mu.Lock()
					dist = all
					mu.Unlock()
				}
				return nil
			}()
			if err != nil {
				mu.Lock()
				if fail == nil {
					fail = err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if fail != nil {
		t.Fatal(fail)
	}
	return dist, runners
}

// Dynamic events queued at rank 0 must ship over the wire, apply at the
// same boundary on every rank, and converge to the exact oracle of the
// grown graph — bit-identical to the single-process engine on the same
// final topology.
func TestRunnerInprocEventsMatchOracle(t *testing.T) {
	const n, P, seed = 100, 3, 13
	evs := demoEvents(n, 4, seed)
	dist, runners := runEventRanks(t, n, P, seed, evs)
	for i, r := range runners {
		if r.Stats().EventsApplied != len(evs) {
			t.Fatalf("rank %d applied %d events, want %d", i, r.Stats().EventsApplied, len(evs))
		}
	}
	// Re-derive the grown topology the way a rejoiner would — base graph +
	// journal replay — and pin the runner's matrix to its exact oracle
	// (the single-process engine's converged fixed point).
	g2 := testGraph(t, n, seed)
	part2, err := partition.Multilevel{Seed: seed}.Partition(g2, P)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.NewEventLog(P).Replay(g2, part2, evs); err != nil {
		t.Fatal(err)
	}
	if len(dist) != g2.NumVertices() {
		t.Fatalf("gathered %d rows, want %d (base %d + new vertices)", len(dist), g2.NumVertices(), n)
	}
	if err := verifyOracle(g2, dist); err != nil {
		t.Fatal(err)
	}

	opts := core.NewOptions()
	opts.P = P
	opts.Seed = seed
	e, err := core.New(g2, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	engineDist := e.Distances()
	for v := range dist {
		for u := range dist[v] {
			if dist[v][u] != engineDist[v][u] {
				t.Fatalf("dist[%d][%d]: runner %d, engine %d", v, u, dist[v][u], engineDist[v][u])
			}
		}
	}
}

// Crash one rank mid-run (cooperative Abort, the in-process SIGKILL),
// verify the survivors reach a degraded convergence naming exactly the
// dead rank, rejoin a replacement from its recovery shard, and require the
// final gathered matrix to be bit-identical to a never-crashed run.
func TestRunnerInprocCrashRejoinBitIdentical(t *testing.T) {
	const n, P, seed = 90, 3, 17
	const victim = 2
	g := testGraph(t, n, seed)
	shardDir := t.TempDir()
	cfg := func() Config {
		return Config{
			Graph: g, Seed: seed,
			ShardDir:     shardDir,
			MinSteps:     4,
			StepThrottle: 2 * time.Millisecond,
			RejoinWait:   20 * time.Second,
		}
	}
	group := transport.NewInprocGroup(P)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		dist [][]graph.Dist
		fail error
	)
	report := func(err error) {
		mu.Lock()
		if err != nil && fail == nil {
			fail = err
		}
		mu.Unlock()
	}
	runners := make([]*Runner, P)
	// Survivors run to completion.
	for i := 0; i < P; i++ {
		if i == victim {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := func() error {
				r, err := New(group[i], cfg())
				if err != nil {
					return err
				}
				runners[i] = r
				if _, err := r.Run(); err != nil {
					return err
				}
				all, err := r.GatherDistances()
				if i == 0 && err == nil {
					mu.Lock()
					dist = all
					mu.Unlock()
				}
				return err
			}()
			report(err)
		}(i)
	}
	// The victim steps twice (writing its shard each step), then dies.
	crashed := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(crashed)
		r, err := New(group[victim], cfg())
		if err != nil {
			report(err)
			return
		}
		for s := 0; s < 2; s++ {
			if _, err := r.Step(); err != nil {
				report(err)
				return
			}
		}
		group[victim].Abort()
	}()
	// The supervisor: once the victim is dead, give the survivors time to
	// detect it and reach a degraded convergence, then relaunch.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-crashed
		time.Sleep(100 * time.Millisecond)
		nt := transport.RejoinInproc(group[0], victim)
		r, err := Rejoin(nt, cfg())
		if err != nil {
			report(err)
			return
		}
		mu.Lock()
		runners[victim] = r
		mu.Unlock()
		if _, err := r.Run(); err != nil {
			report(err)
			return
		}
		_, err = r.GatherDistances()
		report(err)
	}()
	wg.Wait()
	if fail != nil {
		t.Fatal(fail)
	}

	for _, i := range []int{0, 1} {
		r := runners[i]
		if r.Stats().DegradedConvergences == 0 {
			t.Fatalf("survivor %d never reached a degraded convergence", i)
		}
		if seen := r.DownSeen(); len(seen) != 1 || seen[0] != victim {
			t.Fatalf("survivor %d outage report %v, want [%d]", i, seen, victim)
		}
		if r.Stats().Rejoins == 0 {
			t.Fatalf("survivor %d integrated no rejoin", i)
		}
		if !r.Converged() {
			t.Fatalf("survivor %d stopped without full convergence", i)
		}
		if len(r.DownProcs()) != 0 {
			t.Fatalf("survivor %d still holds %v down after the rejoin", i, r.DownProcs())
		}
	}
	if _, err := os.Stat(filepath.Join(shardDir, "aarank-2.shard")); err != nil {
		t.Fatalf("victim wrote no recovery shard: %v", err)
	}

	if err := verifyOracle(g, dist); err != nil {
		t.Fatal(err)
	}
	// Bit-identical to a run that never crashed.
	clean := runRanks(t, inprocGroup(P), func(int) Config {
		return Config{Graph: g, Seed: seed}
	})
	for v := range dist {
		for u := range dist[v] {
			if dist[v][u] != clean[v][u] {
				t.Fatalf("dist[%d][%d]: crashed run %d, clean run %d", v, u, dist[v][u], clean[v][u])
			}
		}
	}
}

// An edge addition that re-adds an existing edge with a lighter weight
// lowers the weight — on both runtimes, through the one event resolver.
// The Engine (P=2) and two Runners absorb the same event on the same base
// graph; both must equal the oracle of the lowered-weight graph.
func TestLighterDuplicateEdgeEngineMatchesRunner(t *testing.T) {
	const n, P, seed = 60, 2, 29
	g := testGraph(t, n, seed)
	eu, ev := -1, -1
	g.ForEachEdge(func(u, v int, w graph.Weight) {
		if eu < 0 && w >= 2 {
			eu, ev = u, v
		}
	})
	if eu < 0 {
		t.Fatal("test graph has no edge heavier than 1")
	}
	evs := []change.Event{{EdgeAdds: []change.EdgeAdd{{U: int32(eu), V: int32(ev), Weight: 1}}}}

	lowered := g.Clone()
	if err := lowered.RemoveEdge(eu, ev); err != nil {
		t.Fatal(err)
	}
	lowered.MustAddEdge(eu, ev, 1)

	opts := core.NewOptions()
	opts.P = P
	opts.Seed = seed
	e, err := core.New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.QueueEdgeAdds(evs[0].EdgeAdds...); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !e.Converged() {
		t.Fatal("engine did not converge")
	}
	if err := verifyOracle(lowered, e.Distances()); err != nil {
		t.Fatal(err)
	}

	dist, _ := runEventRanks(t, n, P, seed, evs)
	if err := verifyOracle(lowered, dist); err != nil {
		t.Fatal(err)
	}
}

// FuzzRejoinGo fuzzes the rejoin-go payload parser: it must never panic,
// and any payload it accepts must re-encode byte-identically.
func FuzzRejoinGo(f *testing.F) {
	batch := &change.VertexBatch{
		NumVertices: 3,
		Internal:    []change.InternalEdge{{A: 0, B: 1, Weight: 2}},
		External:    []change.ExternalEdge{{New: 2, Existing: 7, Weight: 1}},
		Pending:     []change.PendingEdge{{New: 1, EarlierBatchVertex: 0, Weight: 3}},
	}
	for _, g := range []rejoinGo{
		{},
		{checksum: 0xdeadbeefcafef00d, steps: 42},
		{checksum: 1, steps: 7, journal: []change.Event{{Batch: batch}, {EdgeAdds: []change.EdgeAdd{{U: 1, V: 2, Weight: 3}}}}},
	} {
		payload, err := g.encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(payload[:len(payload)-1]) // truncated
	}
	f.Add([]byte{})
	f.Add(make([]byte, 15))
	f.Fuzz(func(t *testing.T, payload []byte) {
		g, err := parseRejoinGo(payload)
		if err != nil {
			return // rejected input: fine, as long as it did not panic
		}
		enc, err := g.encode()
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, payload) {
			t.Fatalf("roundtrip mismatch: in %d bytes, out %d bytes", len(payload), len(enc))
		}
	})
}
