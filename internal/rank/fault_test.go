package rank

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"anytime/internal/change"
	"anytime/internal/core"
	"anytime/internal/graph"
	"anytime/internal/transport"
)

// testEvents is the dynamic stream the wire tests push through rank 0: a
// vertex batch exercising internal, external, and cross-batch pending
// edges, followed by plain edge additions between pre-existing vertices.
func testEvents(n int) []change.Event {
	return []change.Event{
		{Batch: &change.VertexBatch{
			NumVertices: 4,
			Internal:    []change.InternalEdge{{A: 0, B: 1, Weight: 2}, {A: 2, B: 3, Weight: 1}},
			External:    []change.ExternalEdge{{New: 0, Existing: 0, Weight: 1}, {New: 2, Existing: int32(n / 2), Weight: 3}, {New: 3, Existing: int32(n - 1), Weight: 2}},
		}},
		{EdgeAdds: []change.EdgeAdd{{U: 0, V: int32(n - 1), Weight: 1}, {U: int32(n / 3), V: int32(2 * n / 3), Weight: 2}}},
	}
}

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
	evs := testEvents(n)
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
	part2, err := Config{Graph: g2, Seed: seed}.withDefaults().Partitioner.Partition(g2, P)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.NewEventLog(P).Replay(g2, part2, evs); err != nil {
		t.Fatal(err)
	}
	if len(dist) != g2.NumVertices() {
		t.Fatalf("gathered %d rows, want %d (base %d + new vertices)", len(dist), g2.NumVertices(), n)
	}
	requireOracle(t, g2, dist)

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
			ShardDir: shardDir, ShardEvery: 1,
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

	requireOracle(t, g, dist)
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
	requireOracle(t, lowered, e.Distances())

	dist, _ := runEventRanks(t, n, P, seed, evs)
	requireOracle(t, lowered, dist)
}
