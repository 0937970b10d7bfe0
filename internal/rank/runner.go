// Package rank drives the anytime-anywhere engine as one rank of a
// multi-process run: each OS process owns exactly one of the P parts and
// talks to its peers over a transport.Transport (the in-process test
// fabric or the TCP mesh). The runner reuses the same DD partitioners,
// IA sweeps, and RC ship/relax/refine machinery as the in-process Engine
// (the same core.Proc unit), so a converged multi-process run produces the
// exact APSP solution — bit-identical to the single-process engine.
//
// Every rank computes the partition deterministically from the shared
// graph and seed; a checksum broadcast verifies all processes agree before
// any distance state moves.
package rank

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"anytime/internal/change"
	"anytime/internal/core"
	"anytime/internal/dv"
	"anytime/internal/graph"
	"anytime/internal/obs"
	"anytime/internal/partition"
	"anytime/internal/transport"
)

// Config configures one rank's run.
type Config struct {
	// Graph is the shared input graph; every process must construct an
	// identical copy (same generator, same seed).
	Graph *graph.Graph
	// Seed seeds the DD phase's multilevel partitioner. Every rank
	// partitions independently and the results are checksum-verified.
	Seed int64
	// Workers is the per-rank relax/IA worker count (default 2).
	Workers int

	// ShardDir, when set, makes the rank write its CRC'd recovery shard
	// (the AASHRD02 format of the in-process simulator) to
	// <ShardDir>/aarank-<rank>.shard after every step — the local state a
	// relaunched process restores from at rejoin.
	ShardDir string
	// MinSteps forces the convergence decision to "continue" while fewer
	// steps have run — a chaos-test hook guaranteeing a kill window; 0
	// disables it.
	MinSteps int
	// StepThrottle sleeps this long at the end of every step (paces the
	// degraded idle loop and widens chaos-test windows); 0 disables it.
	StepThrottle time.Duration
	// RejoinWait is how long rank 0 keeps the survivors idle-stepping in
	// degraded mode waiting for a dead rank to rejoin before letting the
	// run stop degraded (default 0: stop at the first degraded
	// convergence). Only rank 0's clock is consulted, so every rank stops
	// on the same decision.
	RejoinWait time.Duration
	// Obs records crash/rejoin spans on this tracer (nil-safe). When set,
	// Step also records per-phase spans (ship, exchange, relax, whole
	// step), each stamped with this rank and the RC step ID — the raw
	// material of the cluster-merged distributed trace.
	Obs *obs.Tracer
	// Log receives structured liveness/step events (peer deaths, degraded
	// entries, rejoins, shard failures) with rank/step/episode attributes;
	// nil discards them.
	Log *slog.Logger
	// StepHook, when set, is invoked at the end of every Step with the
	// fresh telemetry snapshot — the periodic trace-flush and test hook.
	// It runs on the step loop; keep it cheap.
	StepHook func(Telemetry)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Log == nil {
		c.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Stats counts one rank's work.
type Stats struct {
	Steps    int
	IAOps    int64
	RelaxOps int64
	Reships  int // failed boundary messages re-marked for re-shipping

	DegradedConvergences int // convergence votes that passed with ranks down
	Rejoins              int // peers re-integrated after a death
	PeerDownEvents       int // peer-death notifications observed
	EventsApplied        int // dynamic events applied
}

// Runner is one rank of a multi-process run.
type Runner struct {
	t    transport.Transport
	cfg  Config
	g    *graph.Graph
	part *graph.Partition
	rs   *core.Proc // this rank's per-processor unit

	// carry holds boundary-DV deltas that surfaced outside the data
	// exchange (a delayed delivery released during the convergence vote);
	// they feed the next relax phase instead of being dropped.
	carry     []*dv.Delta
	converged bool
	stats     Stats

	// Liveness plane: the transport's failure detection, folded into one
	// cluster view by the convergence vote.
	log      *core.EventLog
	down     []bool // rank 0's authoritative view, mirrored by the decision broadcast
	degraded bool
	// downSeen snapshots DownProcs at the first degraded convergence (the
	// outage report that survives reconvergence).
	downSeen []int
	// queued dynamic events, rank 0 only; shipped inside the next data
	// exchange.
	queued []change.Event
	// rejoinDeadline is rank 0's degraded-mode stop clock (zero until the
	// first death).
	rejoinDeadline time.Time
	// rejoinsN mirrors Stats.Rejoins for concurrent readers (the metrics
	// scrape goroutine must not touch stats).
	rejoinsN atomic.Int64

	// Observability plane: telem is the scrape-safe snapshot refreshed
	// each step under tmu.
	busyTotal     time.Duration
	degradedSteps int
	outages       int
	tmu           sync.Mutex
	telem         Telemetry
}

// New runs the DD and IA phases for this process's rank: partition the
// graph (verifying cross-process agreement), extract the local sub-graph,
// and compute the local APSP. The transport's rank/size define which part
// this process owns and P.
func New(t transport.Transport, cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	g := cfg.Graph
	part, err := decompose(cfg, t.Size())
	if err != nil {
		return nil, err
	}
	if err := verifyPartition(t, part); err != nil {
		return nil, err
	}
	r := newRunner(t, cfg, g, part)
	r.rs = core.NewProc(t.Rank(), g, part)
	// IA: every local row's single-source distances over local-only paths.
	r.stats.IAOps = r.rs.IA(r.rs.Table().Rows(), false, graph.Stats(g).UnitWeights, cfg.Workers)
	return r, nil
}

// decompose is the DD phase shared by New and Rejoin: validate the input
// graph and partition it deterministically into P parts.
func decompose(cfg Config, P int) (*graph.Partition, error) {
	g := cfg.Graph
	if g == nil {
		return nil, fmt.Errorf("rank: nil graph")
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("rank: invalid graph: %w", err)
	}
	if g.NumVertices() < P {
		return nil, fmt.Errorf("rank: %d vertices < P=%d", g.NumVertices(), P)
	}
	part, err := partition.Multilevel{Seed: cfg.Seed}.Partition(g, P)
	if err != nil {
		return nil, fmt.Errorf("rank: DD partitioning: %w", err)
	}
	if err := part.Validate(g); err != nil {
		return nil, fmt.Errorf("rank: DD partition invalid: %w", err)
	}
	return part, nil
}

// newRunner wires the shared runner state.
func newRunner(t transport.Transport, cfg Config, g *graph.Graph, part *graph.Partition) *Runner {
	return &Runner{t: t, cfg: cfg, g: g, part: part,
		log:  core.NewEventLog(t.Size()),
		down: make([]bool, t.Size()),
	}
}

// verifyPartition checks that every process computed the same vertex
// assignment: rank 0 broadcasts an FNV-1a checksum of its partition and
// every rank compares. A mismatch means the processes are not running the
// same graph/seed/partitioner and must not exchange distance state.
func verifyPartition(t transport.Transport, part *graph.Partition) error {
	sum := partChecksum(part)
	buf := binary.LittleEndian.AppendUint64(nil, sum)
	msg, err := t.Broadcast(0, transport.Message{Tag: transport.TagControl, Bytes: len(buf), Payload: buf})
	if err != nil {
		return fmt.Errorf("rank: partition checksum broadcast: %w", err)
	}
	if t.Rank() == 0 {
		return nil
	}
	root, err := msg.Control(8)
	if err != nil {
		return fmt.Errorf("rank %d: partition checksum: %w", t.Rank(), err)
	}
	if rootSum := binary.LittleEndian.Uint64(root); rootSum != sum {
		return fmt.Errorf("rank %d: partition checksum %x != root %x (divergent graph, seed, or partitioner)",
			t.Rank(), sum, rootSum)
	}
	return nil
}

// partChecksum is the 64-bit FNV-1a hash of the part count's low byte
// followed by every vertex's part as 4 little-endian bytes. The value
// travels in the rejoin-go payload, so this layout must not change.
func partChecksum(p *graph.Partition) uint64 {
	b := make([]byte, 1, 1+4*len(p.Part))
	b[0] = byte(p.K)
	for _, pt := range p.Part {
		b = binary.LittleEndian.AppendUint32(b, uint32(pt))
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Step performs one recombination step across all processes: ship dirty
// boundary deltas (and, from rank 0, this step's queued dynamic events),
// exchange, relax, apply events, re-mark failed deliveries, write the
// recovery shard, and vote on convergence. It returns true while more
// steps are needed.
func (r *Runner) Step() (bool, error) {
	tr := r.cfg.Obs
	rank := int32(r.t.Rank())
	stepID := int32(r.stats.Steps)
	stepW := tr.Now()
	stepStart := time.Now()

	// A fault wrapper may hold a payload across the step boundary, so the
	// ship groups are allocated per step (no buffer reuse).
	groups, _ := r.rs.Ship(false, false)
	var out []transport.Message
	shipBytes := 0
	for q, deltas := range groups {
		if len(deltas) == 0 {
			continue
		}
		if r.down[q] {
			// Shipping to a known-down rank would bounce back through
			// TakeFailed and re-dirty the rows forever, blocking the
			// degraded convergence. Drop it: activation's
			// MarkRejoinShipAll re-ships everything the rank missed.
			continue
		}
		n := transport.EncodedDeltaBytes(deltas)
		shipBytes += n
		out = append(out, transport.Message{
			To:      q,
			Tag:     transport.TagBoundaryDV,
			Bytes:   n,
			Payload: deltas,
		})
	}
	out, err := r.shipEvents(out)
	if err != nil {
		return false, err
	}
	shipDur := time.Since(stepStart)
	if tr.Enabled() {
		tr.Record(obs.Span{Kind: obs.KindRCShip, Proc: rank, Rank: rank, Step: stepID,
			Wall: stepW, WallDur: shipDur, Value: int64(shipBytes)})
	}

	exW := tr.Now()
	exStart := time.Now()
	in, err := r.t.Exchange(out)
	if err != nil {
		return false, fmt.Errorf("rank %d: exchange: %w", r.t.Rank(), err)
	}
	if tr.Enabled() {
		tr.Record(obs.Span{Kind: obs.KindRCExchange, Proc: rank, Rank: rank, Step: stepID,
			Wall: exW, WallDur: time.Since(exStart), Value: int64(len(in))})
	}
	ext := r.carry
	r.carry = nil
	var events []change.Event
	for _, msg := range in {
		switch msg.Tag {
		case transport.TagBoundaryDV:
			deltas, err := msg.Deltas()
			if err != nil {
				return false, fmt.Errorf("rank %d: boundary deltas: %w", r.t.Rank(), err)
			}
			ext = append(ext, deltas...)
		case transport.TagNewVertexRow:
			evs, err := msg.Events()
			if err != nil {
				return false, fmt.Errorf("rank %d: vertex batch: %w", r.t.Rank(), err)
			}
			events = append(events, evs...)
		}
	}

	relaxW := tr.Now()
	relaxStart := time.Now()
	ops := r.rs.Relax(ext, true, r.cfg.Workers, core.TileSize)
	r.stats.RelaxOps += ops
	relaxDur := time.Since(relaxStart)
	if tr.Enabled() {
		tr.Record(obs.Span{Kind: obs.KindRCRelax, Proc: rank, Rank: rank, Step: stepID,
			Wall: relaxW, WallDur: relaxDur, Value: ops})
	}
	if failed := r.t.TakeFailed(); len(failed) > 0 {
		r.stats.Reships += len(failed)
		for _, msg := range failed {
			// only boundary messages carry rows to re-mark
			if deltas, err := msg.Deltas(); err == nil {
				r.rs.ReMarkFailed(deltas)
			}
		}
	}
	if len(events) > 0 {
		// Every live rank received the identical list at this boundary;
		// down ranks catch up from the journal at rejoin.
		if err := r.rs.ApplyEvents(r.log, events); err != nil {
			return false, fmt.Errorf("rank %d: dynamic events: %w", r.t.Rank(), err)
		}
		r.stats.EventsApplied += len(events)
	}
	r.stats.Steps++
	r.t.MarkStep(int64(r.stats.Steps))
	r.writeShard()
	more, err := r.voteConvergence()
	if err != nil {
		return false, err
	}
	if tr.Enabled() {
		tr.Record(obs.Span{Kind: obs.KindRCStep, Proc: rank, Rank: rank, Step: stepID,
			Wall: stepW, WallDur: time.Since(stepStart), Value: ops})
	}
	r.updateTelemetry(shipDur+relaxDur, time.Since(stepStart))
	if hook := r.cfg.StepHook; hook != nil {
		hook(r.Telemetry())
	}
	if r.cfg.StepThrottle > 0 {
		time.Sleep(r.cfg.StepThrottle)
	}
	return more, nil
}

// Run steps until convergence (or core.MaxRCSteps) and returns the steps
// taken.
func (r *Runner) Run() (int, error) {
	steps := 0
	for steps < core.MaxRCSteps {
		more, err := r.Step()
		steps++
		if err != nil {
			return steps, err
		}
		if !more {
			return steps, nil
		}
	}
	return steps, fmt.Errorf("rank %d: no convergence after %d steps", r.t.Rank(), steps)
}

// Converged reports whether the last Step's vote declared convergence
// (with every rank up — a degraded stop is not convergence).
func (r *Runner) Converged() bool { return r.converged }

// Stats returns this rank's work counters.
func (r *Runner) Stats() Stats { return r.stats }

// Partition returns the (verified) vertex assignment.
func (r *Runner) Partition() *graph.Partition { return r.part }

// GatherDistances collects the full n x n distance matrix at rank 0
// (rows indexed by global vertex ID); other ranks return nil. It is a
// collective, typically called once after convergence.
func (r *Runner) GatherDistances() ([][]graph.Dist, error) {
	var out []transport.Message
	if r.t.Rank() != 0 {
		deltas := make([]*dv.Delta, 0, r.rs.Table().Len())
		for _, row := range r.rs.Table().Rows() {
			deltas = append(deltas, row.FullDelta())
		}
		out = []transport.Message{{
			To:      0,
			Tag:     transport.TagMigrateRows,
			Bytes:   transport.EncodedDeltaBytes(deltas),
			Payload: deltas,
		}}
	}
	in, err := r.t.Exchange(out)
	if err != nil {
		return nil, fmt.Errorf("rank %d: gather: %w", r.t.Rank(), err)
	}
	if r.t.Rank() != 0 {
		return nil, nil
	}
	n := r.g.NumVertices()
	all := make([][]graph.Dist, n)
	for _, row := range r.rs.Table().Rows() {
		all[row.Owner] = append([]graph.Dist(nil), row.D...)
	}
	for _, msg := range in {
		if msg.Tag != transport.TagMigrateRows {
			continue
		}
		deltas, err := msg.Deltas()
		if err != nil {
			return nil, fmt.Errorf("rank 0: gather: %w", err)
		}
		for _, d := range deltas {
			if int(d.Owner) >= n || d.Lo != 0 || len(d.D) != n {
				return nil, fmt.Errorf("rank 0: gathered malformed row (owner=%d lo=%d len=%d)", d.Owner, d.Lo, len(d.D))
			}
			all[d.Owner] = d.D // decoded rows own their memory
		}
	}
	for v := 0; v < n; v++ {
		if all[v] == nil {
			return nil, fmt.Errorf("rank 0: gathered no row for vertex %d", v)
		}
	}
	return all, nil
}

// Close releases the transport.
func (r *Runner) Close() error { return r.t.Close() }
