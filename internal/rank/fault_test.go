package rank

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"anytime/internal/change"
	"anytime/internal/core"
	"anytime/internal/graph"
	"anytime/internal/partition"
	"anytime/internal/transport"
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

// checkCut reports a runner whose cut rows differ from referenceCut on its
// current graph and partition.
func checkCut(t *testing.T, label string, r *Runner) {
	if want := referenceCut(r.g, r.part, r.t.Rank()); !slices.Equal(r.rs.Cut(), want) {
		t.Errorf("%s: rank %d after step %d: cut rows %v, want %v", label, r.t.Rank(), r.stats.Steps, r.rs.Cut(), want)
	}
}

// cutCheckedConfig returns cfg with a step hook that checks the runner
// *r's cut rows after every step — every ApplyEvents lands inside one.
func cutCheckedConfig(t *testing.T, cfg Config, r **Runner) Config {
	cfg.StepHook = func(Telemetry) { checkCut(t, "step hook", *r) }
	return cfg
}

// runEventRanks runs P runners over the inproc fabric on the shared test
// graph, queues evs at rank 0 before the first step, drives every rank to
// convergence and returns rank 0's gathered matrix plus the runners. Each
// rank owns a private graph copy (events mutate it), exactly like separate
// OS processes; every rank's cut rows are checked after every step.
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
				var r *Runner
				r, err := New(group[i], cutCheckedConfig(t, Config{Graph: testGraph(t, n, seed), Seed: seed}, &r))
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

// A rank that was down while events applied catches up through the
// journal at rejoin. Its cut rows after the replay must equal a
// recomputation on the grown graph, every rank's must hold after every
// step, and the final matrix must equal the grown graph's oracle.
func TestRunnerRejoinReplaysEventsIntoCutRows(t *testing.T) {
	const n, P, seed = 90, 3, 17
	const victim = 2
	evs := demoEvents(n, 4, seed)
	shardDir := t.TempDir()
	cfg := func() Config {
		return Config{
			Graph: testGraph(t, n, seed), Seed: seed,
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
	// Rank 0 steps until it holds the victim down, queues the events,
	// steps until they apply and only then lets the victim rejoin.
	applied := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := func() error {
			var r *Runner
			r, err := New(group[0], cutCheckedConfig(t, cfg(), &r))
			if err != nil {
				return err
			}
			runners[0] = r
			for len(r.DownProcs()) == 0 {
				if _, err := r.Step(); err != nil {
					return err
				}
			}
			if err := r.QueueEvents(evs...); err != nil {
				return err
			}
			for r.Stats().EventsApplied < len(evs) {
				if _, err := r.Step(); err != nil {
					return err
				}
			}
			close(applied)
			if _, err := r.Run(); err != nil {
				return err
			}
			all, err := r.GatherDistances()
			mu.Lock()
			dist = all
			mu.Unlock()
			return err
		}()
		report(err)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := func() error {
			var r *Runner
			r, err := New(group[1], cutCheckedConfig(t, cfg(), &r))
			if err != nil {
				return err
			}
			runners[1] = r
			if _, err := r.Run(); err != nil {
				return err
			}
			_, err = r.GatherDistances()
			return err
		}()
		report(err)
	}()
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
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-crashed
		select {
		case <-applied:
		case <-time.After(30 * time.Second):
			report(fmt.Errorf("rank 0 applied no events within 30 s"))
			return
		}
		nt := transport.RejoinInproc(group[0], victim)
		var r *Runner
		r, err := Rejoin(nt, cutCheckedConfig(t, cfg(), &r))
		if err != nil {
			report(err)
			return
		}
		if r.g.NumVertices() != n+4 {
			report(fmt.Errorf("rejoined graph has %d vertices, want %d", r.g.NumVertices(), n+4))
			return
		}
		checkCut(t, "after the journal replay", r)
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
	if runners[victim].Stats().EventsApplied != 0 {
		t.Fatalf("the rejoined rank applied %d events through the exchange, want them all from the journal", runners[victim].Stats().EventsApplied)
	}
	grown := testGraph(t, n, seed)
	part, err := partition.Multilevel{Seed: seed}.Partition(grown, P)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.NewEventLog(P).Replay(grown, part, evs); err != nil {
		t.Fatal(err)
	}
	if err := verifyOracle(grown, dist); err != nil {
		t.Fatal(err)
	}
}

// Rank 0's intake refuses, as a whole, an event list with an event that
// would fail every rank applying it — a kind with no wire encoding, or an
// edge to a vertex that does not exist — and queues nothing, so the mesh
// carries on and later valid events apply. Without the refusal rank 0's
// next step fails and its peers block in the exchange.
func TestQueueEventsRefusesUnappliableEvents(t *testing.T) {
	const n, P, seed = 60, 2, 5
	good := demoEvents(n, 3, seed)
	bad := [][]change.Event{
		{{VertexDel: &change.VertexDel{V: 3}}},
		{{Batch: &change.VertexBatch{NumVertices: 1, External: []change.ExternalEdge{{New: 0, Existing: 99999, Weight: 1}}}}},
		{{EdgeAdds: []change.EdgeAdd{{U: 0, V: n + 1, Weight: 1}}}},
		{{Batch: &change.VertexBatch{NumVertices: 1, Pending: []change.PendingEdge{{New: 0, EarlierBatchVertex: 2, Weight: 1}}}}},
		append(append([]change.Event(nil), good...), change.Event{EdgeDels: []change.EdgeDel{{U: 0, V: 1}}}),
	}
	group := inprocGroup(P)
	errs := make([]error, P)
	runners := make([]*Runner, P)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := range group {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = func() error {
				r, err := New(group[i], Config{Graph: testGraph(t, n, seed), Seed: seed})
				if err != nil {
					return err
				}
				runners[i] = r
				if i == 0 {
					for k, evs := range bad {
						if err := r.QueueEvents(evs...); err == nil {
							t.Errorf("bad event list %d was admitted", k)
						}
					}
					if err := r.QueueEvents(good...); err != nil {
						return err
					}
				}
				_, err = r.Run()
				return err
			}()
		}(i)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("ranks still running after 20 s")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
		if got := runners[i].Stats().EventsApplied; got != len(good) {
			t.Fatalf("rank %d applied %d events, want %d", i, got, len(good))
		}
	}
}
