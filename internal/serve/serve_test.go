package serve

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anytime/internal/centrality"
	"anytime/internal/core"
	"anytime/internal/gen"
	"anytime/internal/graph"
	"anytime/internal/stream"
)

func testBase(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbert(n, 2, gen.Weights{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	gen.Connectify(g, seed)
	return g
}

func testEngine(t testing.TB, g *graph.Graph, p int, seed int64) *core.Engine {
	t.Helper()
	opts := core.NewOptions()
	opts.P = p
	opts.Seed = seed
	opts.Strategy = core.AutoPS
	e, err := core.New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestConcurrentReadersDuringLiveIngestion is the serving subsystem's
// core contract, run under -race: 10 reader goroutines hammer the
// published View (top-k and point closeness) while the driver ingests a
// generated growth-with-churn stream; snapshot versions must be monotonic
// per reader, every view internally consistent, and the final converged
// closeness must match a from-scratch sequential oracle on the grown
// graph.
func TestConcurrentReadersDuringLiveIngestion(t *testing.T) {
	const seed = 7
	base := testBase(t, 220, seed)
	st, err := stream.Generate(base, stream.GenConfig{Ticks: 60, JoinsPerTick: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	oracleGraph, err := stream.GrownGraph(base, st)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := New(testEngine(t, base, 4, seed), Config{
		PublishEvery:  1,
		QueueCapacity: 128,
		TopKIndex:     16,
		AdmitWait:     50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const readers = 10
	var (
		done    atomic.Bool
		queries atomic.Int64
		wg      sync.WaitGroup
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastVersion uint64
			for i := 0; !done.Load(); i++ {
				v := srv.View()
				if v.Version < lastVersion {
					t.Errorf("snapshot version went backwards: %d after %d", v.Version, lastVersion)
					return
				}
				lastVersion = v.Version
				k := 5
				if i%7 == 0 {
					k = len(v.topk) + 10 // past the precomputed index
				}
				top := v.TopK(k)
				for j := 1; j < len(top); j++ {
					a, b := v.Snap.Closeness[top[j-1]], v.Snap.Closeness[top[j]]
					if a < b {
						t.Errorf("top-k not descending at rank %d: %g < %g", j, a, b)
						return
					}
				}
				if len(top) > 0 {
					best := top[0]
					if v.Snap.Closeness[best] < 0 || best >= v.Vertices {
						t.Errorf("top vertex %d invalid for view of %d vertices", best, v.Vertices)
						return
					}
				}
				queries.Add(1)
			}
		}()
	}

	for _, window := range st.Window(5) {
		for {
			err := srv.Admit(window)
			if errors.Is(err, ErrBackpressure) {
				time.Sleep(time.Millisecond)
				continue
			}
			if err != nil {
				t.Fatalf("admit: %v", err)
			}
			break
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	done.Store(true)
	wg.Wait()

	final := srv.View()
	if !final.Converged {
		t.Fatal("final view not converged after Close")
	}
	if final.Vertices != st.FinalN() {
		t.Fatalf("final view has %d vertices, stream grows to %d", final.Vertices, st.FinalN())
	}
	if final.Version < 2 {
		t.Fatalf("only %d publications during ingestion", final.Version)
	}
	if q := queries.Load(); q < int64(readers) {
		t.Fatalf("readers only completed %d queries", q)
	}

	want := centrality.Closeness(oracleGraph)
	for v := range want {
		if math.Abs(final.Snap.Closeness[v]-want[v]) > 1e-12 {
			t.Fatalf("vertex %d: closeness %g, oracle %g", v, final.Snap.Closeness[v], want[v])
		}
	}
}

// TestBackpressure slows the driver to a crawl and floods it: Admit must
// fail fast with ErrBackpressure instead of queueing unboundedly, and
// everything admitted must still be applied by Close.
func TestBackpressure(t *testing.T) {
	base := testBase(t, 50, 3)
	n0 := base.NumVertices()
	srv, err := New(testEngine(t, base, 2, 3), Config{
		QueueCapacity:    8,
		AdmitWait:        time.Millisecond,
		MaxEventsPerStep: 1,
		stepDelay:        20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	admitted, rejected := 0, 0
	next := int32(n0)
	for i := 0; i < 100; i++ {
		ev := stream.Event{Kind: stream.AddVertex, U: next}
		switch err := srv.Admit([]stream.Event{ev}); {
		case err == nil:
			admitted++
			next++
		case errors.Is(err, ErrBackpressure):
			rejected++
		default:
			t.Fatalf("admit: %v", err)
		}
	}
	if rejected == 0 {
		t.Fatal("no backpressure from a flooded queue with a throttled driver")
	}
	if admitted == 0 {
		t.Fatal("nothing admitted")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	final := srv.View()
	if final.Vertices != n0+admitted {
		t.Fatalf("final graph has %d vertices, want %d base + %d admitted", final.Vertices, n0, admitted)
	}
	c := srv.Counters()
	if got := c.EventsAdmitted.Load(); got != int64(admitted) {
		t.Fatalf("EventsAdmitted = %d, want %d", got, admitted)
	}
	if got := c.EventsRejectedBackpressure.Load(); got != int64(rejected) {
		t.Fatalf("EventsRejectedBackpressure = %d, want %d", got, rejected)
	}
	if got := c.EventsRejectedInvalid.Load(); got != 0 {
		t.Fatalf("EventsRejectedInvalid = %d, want 0 (all rejections were backpressure)", got)
	}
	if got := c.EventsRejected(); got != int64(rejected) {
		t.Fatalf("EventsRejected() = %d, want %d", got, rejected)
	}
	if got := c.EventsIngested.Load(); got != int64(admitted) {
		t.Fatalf("EventsIngested = %d, want %d", got, admitted)
	}
}

// TestAdmitValidation: invalid batches are rejected atomically and leave
// the admitted shape untouched; Admit after Close fails with ErrClosed.
func TestAdmitValidation(t *testing.T) {
	base := testBase(t, 40, 5)
	n := int32(base.NumVertices())
	srv, err := New(testEngine(t, base, 2, 5), Config{})
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]stream.Event{
		{{Kind: stream.AddVertex, U: n + 5}},                                                     // non-dense ID
		{{Kind: stream.AddEdge, U: 1, V: 1, W: 1}},                                               // self-loop
		{{Kind: stream.AddEdge, U: 0, V: 10 * n, W: 1}},                                          // out of range
		{{Kind: stream.AddEdge, U: 0, V: 1, W: 0}},                                               // non-positive weight
		{{Kind: stream.DelVertex, U: -1}},                                                        // negative
		{{Kind: stream.Kind(99), U: 0}},                                                          // unknown kind
		{{Kind: stream.AddVertex, U: n}, {Kind: stream.AddEdge, U: int32(n), V: int32(n), W: 1}}, // valid then invalid: must reject both
	}
	for i, evs := range bad {
		if err := srv.Admit(evs); !errors.Is(err, stream.ErrInvalidEvent) {
			t.Fatalf("bad batch %d: Admit = %v, want stream.ErrInvalidEvent", i, err)
		}
	}
	// The rejected batches must not have advanced the expected next ID.
	if err := srv.Admit([]stream.Event{{Kind: stream.AddVertex, U: n}}); err != nil {
		t.Fatalf("valid join after rejected batches: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Admit([]stream.Event{{Kind: stream.AddVertex, U: n + 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Admit after Close = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCheckpointOnClose: graceful shutdown writes a checkpoint that
// restores into an engine with the grown graph and the exact converged
// distances.
func TestCheckpointOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.ckpt")
	base := testBase(t, 80, 9)
	st, err := stream.Generate(base, stream.GenConfig{Ticks: 30, JoinsPerTick: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(testEngine(t, base, 2, 9), Config{CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range st.Window(5) {
		if err := srv.Admit(window); err != nil {
			t.Fatalf("admit: %v", err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	defer f.Close()
	opts := core.NewOptions()
	opts.P = 2
	opts.Seed = 9
	restored, err := core.Restore(f, opts)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !restored.Converged() {
		t.Fatal("restored engine not converged")
	}
	final := srv.View()
	got := restored.Snapshot()
	if got.Step != final.Step {
		t.Fatalf("restored at step %d, server closed at %d", got.Step, final.Step)
	}
	for v := range final.Snap.Closeness {
		if got.Closeness[v] != final.Snap.Closeness[v] {
			t.Fatalf("vertex %d: restored closeness %g != served %g", v, got.Closeness[v], final.Snap.Closeness[v])
		}
	}
}

// release lets a held driver (Server.held) take k more RC steps and
// reports true once it has taken them and parked before the next one; k =
// 0 only waits for it to park. It reports false if the driver has not
// parked within 10 s: it went idle (converged with nothing admitted)
// instead, so the test released more steps than the run has.
func (s *Server) release(k int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.released += k
	s.cond.Broadcast()
	deadline := time.Now().Add(10 * time.Second)
	wake := time.AfterFunc(10*time.Second, s.cond.Broadcast)
	defer wake.Stop()
	for s.released > 0 || !s.parked {
		if time.Now().After(deadline) {
			return false
		}
		s.cond.Wait()
	}
	return true
}

// TestPublishEvery: with K > 1 the driver publishes fewer views than RC
// steps, but convergence still forces a final exact publish. The driver is
// held before its first RC step while every event is admitted, and two
// steps are released before Close, so the event windows it takes and the
// step at which it sees Close are fixed: the number of views does not
// depend on goroutine scheduling.
func TestPublishEvery(t *testing.T) {
	base := testBase(t, 60, 4)
	srv, err := newServer(testEngine(t, base, 2, 4), Config{PublishEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv.held = true
	go srv.drive()
	if !srv.release(0) {
		t.Fatal("held driver did not park before its first step")
	}
	var evs []stream.Event
	next := int32(base.NumVertices())
	for i := 0; i < 12; i++ {
		evs = append(evs,
			stream.Event{Kind: stream.AddVertex, U: next},
			stream.Event{Kind: stream.AddEdge, U: next, V: int32(i), W: 1})
		next++
	}
	if err := srv.Admit(evs); err != nil {
		t.Fatal(err)
	}
	if !srv.release(2) {
		t.Fatal("held driver did not park after two released steps")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	final := srv.View()
	if !final.Converged {
		t.Fatal("final view not converged")
	}
	steps := final.Metrics.RCSteps
	if int(final.Version) > steps/2+2 {
		t.Fatalf("PublishEvery=4 published %d views over %d steps", final.Version, steps)
	}
	if final.Vertices != int(next) {
		t.Fatalf("final view has %d vertices, want %d", final.Vertices, next)
	}
}
