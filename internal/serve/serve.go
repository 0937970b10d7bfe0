// Package serve is the live query-serving layer over the anytime-anywhere
// engine: it owns an Engine on a background driver goroutine and exposes
// the computation to concurrent readers while the graph keeps changing.
//
// The driver loop interleaves recombination steps with draining a bounded
// admission queue of dynamic events (vertex joins with their edges, edge
// additions/deletions, weight changes, vertex departures). After every RC
// step — or every Config.PublishEvery steps — it publishes an immutable
// versioned View via an atomic pointer swap: readers never take a lock and
// never block the driver, and every View carries a precomputed top-k
// closeness index plus metadata (version, RC step, converged flag, queue
// depth, engine metrics).
//
// This is exactly what the paper's anytime property buys: every RC step
// yields a usable, monotonically improving solution, so queries can be
// answered from the latest converged-enough snapshot while ingestion
// continues. Handler exposes the HTTP/JSON API; Admit and View are the
// in-process equivalents.
package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"anytime/internal/core"
	"anytime/internal/stream"
)

// ErrBackpressure is returned by Admit when the admission queue stayed
// full for Config.AdmitWait: ingestion is outrunning recombination and the
// producer must slow down (HTTP clients see 429).
var ErrBackpressure = errors.New("serve: admission queue full")

// ErrClosed is returned by Admit after Close has begun (HTTP clients see
// 503).
var ErrClosed = errors.New("serve: server closed")

// Config tunes the serving subsystem.
type Config struct {
	// PublishEvery publishes a new View every K RC steps (default 1:
	// publish after every step). Convergence always forces a publish so
	// the final exact state is visible regardless of K.
	PublishEvery int
	// QueueCapacity bounds the admission queue, in events (default 4096).
	// When full, Admit blocks up to AdmitWait and then fails with
	// ErrBackpressure. A batch larger than the whole capacity is admitted
	// only when the queue is empty, so oversized batches degrade to
	// one-at-a-time instead of deadlocking.
	QueueCapacity int
	// AdmitWait is how long Admit blocks for space before giving up with
	// ErrBackpressure (default 1s).
	AdmitWait time.Duration
	// MaxEventsPerStep bounds how many admitted events the driver hands to
	// the engine between two RC steps (default 256), so a flood of events
	// cannot starve queries of fresh snapshots.
	MaxEventsPerStep int
	// TopKIndex is the size of the top-k closeness index precomputed at
	// publish time (default 64). Queries with k within the index are O(k);
	// larger k falls back to a heap selection over the immutable snapshot.
	TopKIndex int
	// CheckpointPath, when set, makes Close write an engine checkpoint
	// (atomically, via temp file + fsync + rename) after draining and
	// converging, and is where the driver restarts a crashed engine from.
	CheckpointPath string
	// CheckpointEvery, with CheckpointPath set, writes a periodic
	// checkpoint every K successful RC steps (0: only at Close). The
	// fresher the checkpoint, the fewer events a driver restart loses.
	CheckpointEvery int
	// Log, when set, receives structured driver lifecycle events (engine
	// restarts, driver death, checkpoints) with step/version attributes.
	// Nil disables logging; the driver hot path never touches it then.
	Log *slog.Logger

	// stepDelay, set only by this package's tests, pauses the driver after
	// every RC step (the deterministic backpressure test's throttle).
	stepDelay time.Duration
}

func (c Config) withDefaults() Config {
	if c.PublishEvery <= 0 {
		c.PublishEvery = 1
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 4096
	}
	if c.AdmitWait <= 0 {
		c.AdmitWait = time.Second
	}
	if c.MaxEventsPerStep <= 0 {
		c.MaxEventsPerStep = 256
	}
	if c.TopKIndex <= 0 {
		c.TopKIndex = 64
	}
	return c
}

// Server owns an engine on a background driver goroutine and serves
// versioned snapshots to concurrent readers. Create with New, read with
// View (or the HTTP Handler), feed with Admit (or POST /v1/events), stop
// with Close.
type Server struct {
	cfg      Config
	eng      *core.Engine
	store    store
	counters Counters
	metrics  *serverMetrics

	mu      sync.Mutex
	cond    *sync.Cond
	pending []stream.Event // admitted, not yet handed to the engine
	closed  bool
	dead    bool           // driver died unrecoverably (closeErr holds the cause)
	admitN  int            // vertex count after all admitted events apply
	deleted map[int32]bool // vertices deleted (engine past + admitted)
	// held, set only by this package's tests before the driver starts,
	// parks the driver before each RC step of its loop until a test
	// releases one (see awaitRelease), so the steps taken before an Admit
	// or a Close are fixed; released counts the steps a held driver may
	// still take and parked reports it waiting for one.
	held     bool
	released int
	parked   bool

	// driver-goroutine-only state
	nextID          int32 // next global ID a stream join receives
	version         uint64
	sincePublish    int
	sinceCheckpoint int

	// failNextStep makes the next safeStep fail — the test hook behind the
	// crash-recovery and driver-death tests.
	failNextStep atomic.Bool

	driverDone chan struct{}
	closeErr   error
}

// New wraps an engine (freshly built or restored from a checkpoint) in a
// serving layer and starts the background driver. Ownership of the engine
// transfers to the Server: the caller must not call any engine method
// afterwards. An initial View (version 1) is published before New returns,
// so View never returns nil.
func New(e *core.Engine, cfg Config) (*Server, error) {
	s, err := newServer(e, cfg)
	if err != nil {
		return nil, err
	}
	go s.drive()
	return s, nil
}

// newServer builds the server and publishes the initial View without
// starting the driver (benchmarks exercise publication and the read path
// in isolation through this).
func newServer(e *core.Engine, cfg Config) (*Server, error) {
	if e == nil {
		return nil, fmt.Errorf("serve: nil engine")
	}
	s := &Server{
		cfg:        cfg.withDefaults(),
		eng:        e,
		deleted:    map[int32]bool{},
		driverDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	n := e.Graph().NumVertices()
	s.admitN = n
	s.nextID = int32(n)
	for v := int32(0); int(v) < n; v++ {
		if !e.Alive(v) {
			s.deleted[v] = true
		}
	}
	s.metrics = newServerMetrics(s, e.Options().P)
	e.SetStepHook(s.onStep)
	s.publish()
	return s, nil
}

// Counters returns the server's atomic counters (live; see /metrics for
// the rendered form).
func (s *Server) Counters() *Counters { return &s.counters }

// View returns the latest published snapshot. It never blocks, never
// returns nil, and the result is immutable — safe to read from any number
// of goroutines while the driver keeps publishing.
func (s *Server) View() *View { return s.store.load() }

// Close stops admission (subsequent Admit fails with ErrClosed), lets the
// driver drain every admitted event into the engine, converges it, forces
// a final publish, writes the checkpoint if configured, and waits for the
// driver to exit. Safe to call more than once. In an HTTP deployment,
// shut the http.Server down first so in-flight requests drain against the
// still-live store, then Close the serving layer.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	<-s.driverDone
	return s.closeErr
}

// writeCheckpoint writes the engine checkpoint atomically (temp file in
// the target directory, fsync, rename over the destination).
func (s *Server) writeCheckpoint(path string) error {
	if err := s.eng.WriteCheckpointFile(path); err != nil {
		return fmt.Errorf("serve: writing checkpoint: %w", err)
	}
	return nil
}

// DriverErr reports the error that killed the background driver, or nil
// while it is running (or after a clean Close). While non-nil the server
// rejects admission and serves reads from the last published View.
func (s *Server) DriverErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return s.closeErr
	}
	return nil
}
