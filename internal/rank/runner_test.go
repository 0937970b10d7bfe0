package rank

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"anytime/internal/core"
	"anytime/internal/fault"
	"anytime/internal/graph"
	"anytime/internal/transport"
)

// testGraph is the graph every aacluster rank builds from (n, seed).
func testGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := buildGraph(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runRanks drives one runner per transport endpoint to convergence and
// returns rank 0's gathered distance matrix.
func runRanks(t *testing.T, ts []transport.Transport, mk func(r int) Config) [][]graph.Dist {
	t.Helper()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		dist [][]graph.Dist
		fail error
	)
	for i, tr := range ts {
		wg.Add(1)
		go func(i int, tr transport.Transport) {
			defer wg.Done()
			err := func() error {
				r, err := New(tr, mk(i))
				if err != nil {
					return err
				}
				if _, err := r.Run(); err != nil {
					return err
				}
				all, err := r.GatherDistances()
				if err != nil {
					return err
				}
				if tr.Rank() == 0 {
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
		}(i, tr)
	}
	wg.Wait()
	if fail != nil {
		t.Fatal(fail)
	}
	if dist == nil {
		t.Fatal("rank 0 gathered nothing")
	}
	return dist
}

func inprocGroup(n int) []transport.Transport {
	group := transport.NewInprocGroup(n)
	ts := make([]transport.Transport, n)
	for i, tr := range group {
		ts[i] = tr
	}
	return ts
}

// The multi-process runner over the inproc backend must converge to the
// exact APSP oracle — and therefore bit-identically to the in-process
// Engine, which the same assertion pins on the engine side.
func TestRunnerInprocMatchesOracleAndEngine(t *testing.T) {
	const n, P, seed = 120, 3, 7
	g := testGraph(t, n, seed)
	dist := runRanks(t, inprocGroup(P), func(int) Config {
		return Config{Graph: g, Seed: seed}
	})
	if err := verifyOracle(g, dist); err != nil {
		t.Fatal(err)
	}

	// The in-process engine on the same graph/seed/P: identical converged
	// distances, row for row.
	opts := core.NewOptions()
	opts.P = P
	opts.Seed = seed
	opts.Workers = 2
	e, err := core.New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	engineDist := e.Distances()
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			if dist[v][u] != engineDist[v][u] {
				t.Fatalf("dist[%d][%d]: runner %d, engine %d", v, u, dist[v][u], engineDist[v][u])
			}
		}
	}
}

// Injected faults above the transport (drops, duplicates, delays,
// corruption with a resend budget) must only delay convergence, never
// change the result: the re-mark/re-ship recovery path heals every lost
// update.
func TestRunnerWithInjectedFaultsStaysExact(t *testing.T) {
	const n, P, seed = 90, 3, 11
	g := testGraph(t, n, seed)
	group := inprocGroup(P)
	ts := make([]transport.Transport, P)
	reships := 0
	for i, tr := range group {
		inj, err := fault.NewInjector(fault.Plan{
			Seed:          41,
			DropRate:      0.25,
			DuplicateRate: 0.05,
			DelayRate:     0.10,
			CorruptRate:   0.10,
			ResendBudget:  1, // no retries: every drop/corrupt abandons the message
		}, P)
		if err != nil {
			t.Fatal(err)
		}
		ts[i] = transport.WithFaults(tr, inj)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var dist [][]graph.Dist
	var fail error
	for i := range ts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := New(ts[i], Config{Graph: g, Seed: seed})
			if err == nil {
				_, err = r.Run()
			}
			var all [][]graph.Dist
			if err == nil {
				all, err = r.GatherDistances()
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil && fail == nil {
				fail = err
			}
			if i == 0 {
				dist = all
			}
			if r != nil {
				reships += r.Stats().Reships
			}
		}(i)
	}
	wg.Wait()
	if fail != nil {
		t.Fatal(fail)
	}
	if err := verifyOracle(g, dist); err != nil {
		t.Fatal(err)
	}
	if reships == 0 {
		t.Fatal("fault plan injected no abandoned messages; the recovery path was not exercised")
	}
}

// A rank whose partition disagrees with the root must refuse to run.
func TestRunnerPartitionChecksumMismatch(t *testing.T) {
	const P = 2
	g := testGraph(t, 40, 3)
	ts := inprocGroup(P)
	var wg sync.WaitGroup
	errs := make([]error, P)
	for i := range ts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seed := int64(3)
			if i == 1 {
				seed = 4 // diverging partitioner seed
			}
			_, errs[i] = New(ts[i], Config{Graph: g, Seed: seed})
		}(i)
	}
	wg.Wait()
	if errs[1] == nil {
		t.Fatal("diverging rank 1 did not detect the checksum mismatch")
	}
}

// TestPartChecksumPinned: the partition checksum travels in the rejoin-go
// payload between builds, so its value must not move.
func TestPartChecksumPinned(t *testing.T) {
	p := &graph.Partition{K: 3, Part: []int32{0, 1, 2, 1, 0, 70000, -1}}
	if got := partChecksum(p); got != 0xaa0536b4bb0e682e {
		t.Fatalf("partChecksum = %#x, want 0xaa0536b4bb0e682e", got)
	}
}

// TestVerifyPartitionMalformedRoot: a partition-checksum broadcast from
// rank 0 that is not 8 bytes fails the receiving rank with an error naming
// rank 0, instead of panicking it.
func TestVerifyPartitionMalformedRoot(t *testing.T) {
	group := transport.NewInprocGroup(2)
	sent := make(chan error, 1)
	go func() {
		_, err := group[0].Broadcast(0, transport.Message{Tag: transport.TagControl, Bytes: 3, Payload: []byte{1, 2, 3}})
		sent <- err
	}()
	err := verifyPartition(group[1], &graph.Partition{K: 2, Part: []int32{0, 1}})
	if err == nil || !strings.Contains(err.Error(), "rank 0") {
		t.Fatalf("got %v, want an error naming rank 0", err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// TestGatherWantedMalformedRoot: an empty gather-decision broadcast from
// rank 0 fails the receiving rank with an error naming rank 0, instead of
// panicking it.
func TestGatherWantedMalformedRoot(t *testing.T) {
	group := transport.NewInprocGroup(2)
	sent := make(chan error, 1)
	go func() {
		_, err := group[0].Broadcast(0, transport.Message{Tag: transport.TagControl, Payload: []byte{}})
		sent <- err
	}()
	_, err := gatherWanted(group[1], false)
	if !errors.Is(err, transport.ErrPayloadKind) || !strings.Contains(err.Error(), "rank 0") {
		t.Fatalf("got %v, want ErrPayloadKind naming rank 0", err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// TestBoundaryRawPayloadIsError: a boundary message whose payload is not a
// delta list — on the wire the payload kind is independent of the tag, so a
// CRC-valid frame can carry raw bytes under TagBoundaryDV — fails the
// receiving rank's step with an error naming the sender, instead of
// panicking it.
func TestBoundaryRawPayloadIsError(t *testing.T) {
	rawPayloadStepFails(t, transport.TagBoundaryDV)
}

// TestVertexBatchRawPayloadIsError: a vertex batch (TagNewVertexRow) whose
// payload is not an event list fails the step the same way, instead of
// being skipped — which would leave this rank's graph behind its peers'.
func TestVertexBatchRawPayloadIsError(t *testing.T) {
	rawPayloadStepFails(t, transport.TagNewVertexRow)
}

// rawPayloadStepFails runs rank 0's first step while rank 1, driven by
// hand, sends it a message with the given tag and a raw-bytes payload, and
// requires the step to fail with ErrPayloadKind naming rank 1.
func rawPayloadStepFails(t *testing.T, tag transport.Tag) {
	t.Helper()
	const n, seed = 40, 3
	group := transport.NewInprocGroup(2)
	peer := make(chan error, 1)
	go func() {
		// Rank 1 by hand: the partition checksum, then a data exchange
		// whose message carries bytes.
		_, err := group[1].Broadcast(0, transport.Message{})
		if err == nil {
			_, err = group[1].Exchange([]transport.Message{{To: 0, Tag: tag, Bytes: 3, Payload: []byte{1, 2, 3}}})
		}
		peer <- err
	}()
	r, err := New(group[0], Config{Graph: testGraph(t, n, seed), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Step()
	group[0].Abort()
	if perr := <-peer; perr != nil {
		t.Fatal(perr)
	}
	if !errors.Is(err, transport.ErrPayloadKind) || !strings.Contains(err.Error(), "from rank 1") {
		t.Fatalf("got %v, want ErrPayloadKind naming rank 1", err)
	}
}

// TestMalformedVoteIsError: rank 0 must not read an empty convergence vote
// as "no updates" — the voter may be dirty — but fail the step with an
// error naming the voter.
func TestMalformedVoteIsError(t *testing.T) {
	const n, seed = 40, 3
	group := transport.NewInprocGroup(2)
	peer := make(chan error, 1)
	go func() {
		// Rank 1 by hand: the partition checksum, the data exchange, an
		// empty vote, then the decision broadcast (released by rank 0's
		// abort once rank 0 gives up on the step).
		_, err := group[1].Broadcast(0, transport.Message{})
		if err == nil {
			_, err = group[1].Exchange(nil)
		}
		if err == nil {
			_, err = group[1].Exchange([]transport.Message{{To: 0, Tag: transport.TagControl, Payload: []byte{}}})
		}
		if err == nil {
			group[1].Broadcast(0, transport.Message{})
		}
		peer <- err
	}()
	r, err := New(group[0], Config{Graph: testGraph(t, n, seed), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Step()
	group[0].Abort()
	if perr := <-peer; perr != nil {
		t.Fatal(perr)
	}
	if !errors.Is(err, transport.ErrPayloadKind) || !strings.Contains(err.Error(), "from rank 1") {
		t.Fatalf("got %v, want ErrPayloadKind naming rank 1", err)
	}
}
