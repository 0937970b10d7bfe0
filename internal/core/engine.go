package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"anytime/internal/change"
	"anytime/internal/cluster"
	"anytime/internal/dv"
	"anytime/internal/fault"
	"anytime/internal/graph"
	"anytime/internal/obs"
	"anytime/internal/transport"
)

// Engine is the anytime-anywhere closeness-centrality engine.
//
// Typical use:
//
//	e, _ := core.New(g, core.NewOptions())
//	e.Run()                    // RC steps to convergence (anytime: Step())
//	e.QueueBatch(batch)        // dynamic vertex additions, anywhere
//	e.Run()                    // absorb and re-converge
//	snap := e.Snapshot()       // closeness estimates at any point
type Engine struct {
	opts Options
	g    *graph.Graph
	part *graph.Partition
	mach *cluster.Machine

	procs []*Proc
	alive []bool // false for dynamically deleted vertices

	queue []change.Event
	log   *EventLog // new-vertex ids, placement cursor, stream map

	edgeTargets edgeTargets // scratch of the pruned Fig. 3 scan (edgeops.go)

	step        int
	converged   bool
	exact       bool // the DV state is exact APSP of e.g (DESIGN.md, "Exact-state steps")
	forceRefine bool // set once a change requires local pivoting for exactness
	unitWeight  bool // every live edge weighs 1: IA runs BFS instead of Dijkstra
	globalIA    bool // NewConverged: IA sweeps the whole graph (exact warm start)

	// Fault-injection and recovery state (nil/empty without Options.Faults).
	inj      *fault.Injector
	rejoinAt []int    // per processor: step at which it rejoins (-1 = up)
	shards   [][]byte // per processor: last recovery shard (see recovery.go)
	degraded bool     // a crash occurred and the engine has not reconverged
	err      error    // first unrecoverable error; the engine refuses to step

	metrics  Metrics
	history  []StepStats
	stepHook atomic.Pointer[func(StepStats)]
	prevBusy []time.Duration // per-proc busy time at step start (telemetry)

	// snapshotCells counts the DV cells Snapshot has read to refresh row
	// aggregates (tests assert the incremental rescan through it).
	snapshotCells atomic.Int64
}

// New builds the engine over a snapshot of g: runs the DD phase
// (partitioning) and the IA phase (local APSP). The input graph is cloned;
// later mutations of g are not observed.
func New(g *graph.Graph, opts Options) (*Engine, error) {
	return newEngine(g, opts, false)
}

// NewConverged builds an engine whose DV state is already the exact APSP
// of g: the IA phase searches the whole graph per local row instead of
// stopping at the sub-graph boundary, so no RC steps are needed — rows
// start clean, frontiers cleared, and the engine reports converged. This
// oracle-seeded warm start is what makes paper-scale (n=50,000) dynamic-
// absorption measurements feasible on one machine: the multi-step static
// convergence is replaced by n global single-source searches, and the
// measured quantity — the reconvergence cascade after a change batch —
// only depends on the converged state, which is identical either way.
func NewConverged(g *graph.Graph, opts Options) (*Engine, error) {
	return newEngine(g, opts, true)
}

func newEngine(g *graph.Graph, opts Options, globalIA bool) (*Engine, error) {
	opts = opts.withDefaults()
	if g.NumVertices() < opts.P {
		return nil, fmt.Errorf("core: %d vertices < P=%d", g.NumVertices(), opts.P)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid input graph: %w", err)
	}
	alive := make([]bool, g.NumVertices())
	for i := range alive {
		alive[i] = true
	}
	e, err := newShell(g.Clone(), alive, opts)
	if err != nil {
		return nil, err
	}
	// Repartition-S relies on local-refinement pivoting for exactness
	// after partial-result migration (see applyRepartition), so it is
	// forced on for the strategies that may repartition, regardless of the
	// ablation flag.
	e.forceRefine = opts.Strategy == RepartitionS || opts.Strategy == AutoPS
	e.globalIA = globalIA
	e.refreshWeightProfile()
	start := time.Now()
	if err := e.domainDecomposition(); err != nil {
		return nil, err
	}
	e.initialApproximation()
	if globalIA {
		// The unmasked IA sweeps already computed the global fixpoint, so
		// the first RC step would ship every row only to improve nothing.
		// Mark the state as what it is — a clean converged epoch: nothing
		// pending to ship, frontiers empty (the anchor the masked kernels
		// measure "changed since" against).
		for _, p := range e.procs {
			p.table.ClearDirty()
			p.table.ClearFrontiers()
		}
		e.converged = true
		e.exact = e.exactEligible()
	}
	e.writeShards() // initial recovery shards (no-op without Options.Faults)
	e.metrics.WallTime += time.Since(start)
	e.metrics.VirtualTime = e.mach.VirtualTime()
	e.refreshLoadMetrics()
	return e, nil
}

// newShell builds the engine shell New, NewConverged and Restore share
// over graph g and liveness mask alive: the LogP machine (with a fault
// injector when opts.Faults is set), the event log and the fault state.
func newShell(g *graph.Graph, alive []bool, opts Options) (*Engine, error) {
	cfg := opts.clusterConfig()
	var inj *fault.Injector
	if opts.Faults != nil {
		var err error
		if inj, err = fault.NewInjector(*opts.Faults, opts.P); err != nil {
			return nil, err
		}
		cfg.Fault = inj
	}
	mach, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{opts: opts, g: g, mach: mach, alive: alive, log: NewEventLog(opts.P)}
	e.initFaults(inj)
	return e, nil
}

// domainDecomposition runs the DD phase: partition the graph and build the
// per-processor sub-graph state.
func (e *Engine) domainDecomposition() error {
	dm := e.mark()
	part, err := e.opts.Partitioner.Partition(e.g, e.opts.P)
	if err != nil {
		return fmt.Errorf("core: DD partitioning: %w", err)
	}
	if err := part.Validate(e.g); err != nil {
		return fmt.Errorf("core: DD partition invalid: %w", err)
	}
	e.part = part
	ops := partitionOps(e.g.NumVertices(), e.g.NumEdges())
	e.metrics.DDOps += ops
	// ParMETIS-style parallel partitioning: the work divides over P.
	e.chargeAll(ops / int64(e.opts.P))
	e.buildProcs()
	e.span(obs.KindDD, dm, ops)
	return nil
}

// buildProcs (re)creates the per-processor units: cut rows plus a fresh
// DV table with one row per live local vertex.
func (e *Engine) buildProcs() {
	e.procs = make([]*Proc, e.opts.P)
	for pid := range e.procs {
		e.procs[pid] = e.newProc(pid)
		e.procs[pid].resetTable(e.alive)
	}
}

// newProc builds processor pid's unit (no table yet) wired to the engine's
// tracer and masking ablation.
func (e *Engine) newProc(pid int) *Proc {
	p := newProc(pid, e.g, e.part)
	p.tr = e.opts.Obs
	p.maskOff = e.opts.noFrontierMask
	return p
}

// initialApproximation runs the IA phase: every processor computes APSP
// over its local sub-graph (multithreaded Dijkstra, or the bit-parallel
// multi-source BFS on unit weights), producing the first partial results.
func (e *Engine) initialApproximation() {
	e.mach.Parallel(func(pid int) {
		im := e.markProc(pid)
		p := e.procs[pid]
		ops := p.IA(p.table.Rows(), e.globalIA, e.unitWeight, e.opts.Workers)
		// The paper's multithreaded IA: wall time divides over the worker
		// threads of the processor.
		e.mach.Charge(pid, ops/int64(e.opts.Workers))
		addOps(&e.metrics.IAOps, ops)
		e.spanProc(obs.KindIA, pid, im, ops)
	})
	e.mach.Barrier()
	e.converged = false
}

// refreshWeightProfile re-detects the unit-weight fast-path eligibility
// (IA runs BFS instead of Dijkstra) from the current topology — at
// construction and after every dynamic change; an O(m) scan, negligible
// next to a relax phase.
func (e *Engine) refreshWeightProfile() {
	e.unitWeight = graph.Stats(e.g).UnitWeights
}

// partitionOps approximates the work of one multilevel partitioning run
// (coarsening levels over O(n + 2m) each).
func partitionOps(n, m int) int64 {
	levels := bits.Len(uint(n/200) + 1)
	if levels < 1 {
		levels = 1
	}
	return int64(n+2*m) * int64(levels) * 4
}

func (e *Engine) chargeAll(ops int64) {
	for p := 0; p < e.opts.P; p++ {
		e.mach.Charge(p, ops)
	}
	e.mach.Barrier()
}

// Converged reports whether all updates have been propagated and no
// dynamic changes are pending: the DV state equals exact APSP.
func (e *Engine) Converged() bool { return e.converged && len(e.queue) == 0 }

// Err returns the first unrecoverable error the engine hit (an invalid
// communication schedule, typically indicating internal corruption), or
// nil. After a non-nil Err the engine refuses to step; restore a
// checkpoint into a fresh engine to continue.
func (e *Engine) Err() error { return e.err }

// fail records the first unrecoverable error.
func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Options returns the engine's options with defaults applied — what a
// supervisor needs to Restore a checkpoint of this engine.
func (e *Engine) Options() Options { return e.opts }

// Degraded reports whether a processor crash has occurred that the engine
// has not yet fully reconverged from: anytime snapshots may be serving
// values restored from an older recovery shard. It clears on the first
// convergence with every processor up.
func (e *Engine) Degraded() bool { return e.degraded }

// DownProcs returns the processors currently crashed (nil when all are up).
func (e *Engine) DownProcs() []int {
	if e.inj == nil {
		return nil
	}
	var out []int
	for p := 0; p < e.opts.P; p++ {
		if e.inj.Down(p) {
			out = append(out, p)
		}
	}
	return out
}

// StepsTaken returns the number of RC steps performed so far.
func (e *Engine) StepsTaken() int { return e.step }

// QueuedEvents returns the number of dynamic-change events admitted via
// the Queue* methods that no Step has incorporated yet (one event is
// applied at the end of each RC step).
func (e *Engine) QueuedEvents() int { return len(e.queue) }

// SetStepHook installs fn to be invoked at the end of every RC step with
// that step's statistics — the publication point for serving layers that
// capture a Snapshot after each step regardless of whether the engine is
// driven by Step or Run. Pass nil to remove the hook. The hook runs on the
// goroutine calling Step; it must not call Step, Run, or the Queue*
// methods. Installing or swapping the hook is safe concurrently with a
// running Step/Run (an atomic swap): a step in flight invokes whichever
// hook it loads at its publication point.
func (e *Engine) SetStepHook(fn func(StepStats)) {
	if fn == nil {
		e.stepHook.Store(nil)
		return
	}
	e.stepHook.Store(&fn)
}

// Graph returns the engine's current graph (reflecting applied dynamic
// changes). The caller must not mutate it.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Partition returns the current vertex-to-processor assignment. The caller
// must not mutate it.
func (e *Engine) Partition() *graph.Partition { return e.part }

// Metrics returns a snapshot of the engine's cost counters.
func (e *Engine) Metrics() Metrics {
	m := e.metrics
	m.Comm = e.mach.Stats()
	m.VirtualTime = e.mach.VirtualTime()
	m.RCSteps = e.step
	var rc int64
	for _, p := range e.procs {
		rc += p.table.ResizeCopies
	}
	m.ResizeCopies = rc
	return m
}

// QueueBatch schedules a dynamic vertex-addition batch; it is incorporated
// at the end of the next RC step (the paper's anywhere property).
func (e *Engine) QueueBatch(b *change.VertexBatch) error {
	if err := e.log.Admit(e.g.NumVertices(), e.queue, []change.Event{{Batch: b}}); err != nil {
		return err
	}
	for _, ed := range b.External {
		if e.deleted(ed.Existing) {
			return fmt.Errorf("core: external edge to deleted vertex %d", ed.Existing)
		}
	}
	e.queue = append(e.queue, change.Event{Batch: b})
	return nil
}

// pendingNumVertices is the vertex count after all queued batches apply
// (so a queued batch may reference vertices of earlier queued batches via
// External edges).
func (e *Engine) pendingNumVertices() int {
	n := e.g.NumVertices()
	for _, ev := range e.queue {
		if ev.Batch != nil {
			n += ev.Batch.NumVertices
		}
	}
	return n
}

// deleted reports whether v is a tombstone: deleted by an applied event.
// An edge to it is refused at admission; one admitted while v's deletion
// was still queued is dropped when it applies.
func (e *Engine) deleted(v int32) bool { return v >= 0 && deleted(e.alive, int(v)) }

// QueueEdgeAdds schedules dynamic edge additions between existing, not
// deleted vertices.
func (e *Engine) QueueEdgeAdds(adds ...change.EdgeAdd) error {
	n := e.pendingNumVertices()
	for _, a := range adds {
		if int(a.U) >= n || int(a.V) >= n || a.U < 0 || a.V < 0 || a.U == a.V || a.Weight <= 0 || e.deleted(a.U) || e.deleted(a.V) {
			return fmt.Errorf("core: invalid edge addition {%d,%d,w=%d}", a.U, a.V, a.Weight)
		}
	}
	e.queue = append(e.queue, change.Event{EdgeAdds: adds})
	return nil
}

// QueueEdgeDels schedules dynamic edge deletions. Deleting an edge that
// does not exist when the event applies is a no-op, but the endpoints must
// name distinct (possibly still-queued) vertices.
func (e *Engine) QueueEdgeDels(dels ...change.EdgeDel) error {
	n := e.pendingNumVertices()
	for _, d := range dels {
		if int(d.U) >= n || int(d.V) >= n || d.U < 0 || d.V < 0 || d.U == d.V {
			return fmt.Errorf("core: invalid edge deletion {%d,%d}", d.U, d.V)
		}
	}
	e.queue = append(e.queue, change.Event{EdgeDels: dels})
	return nil
}

// QueueEdgeWeightChanges schedules dynamic edge-weight changes between
// vertices not deleted. Decreases are absorbed incrementally; increases
// fall back to the IA-reset path.
func (e *Engine) QueueEdgeWeightChanges(chs ...change.EdgeWeight) error {
	n := e.pendingNumVertices()
	for _, c := range chs {
		if int(c.U) >= n || int(c.V) >= n || c.U < 0 || c.V < 0 || c.U == c.V || c.Weight <= 0 || e.deleted(c.U) || e.deleted(c.V) {
			return fmt.Errorf("core: invalid weight change {%d,%d,w=%d}", c.U, c.V, c.Weight)
		}
	}
	e.queue = append(e.queue, change.Event{WeightChanges: chs})
	return nil
}

// QueueVertexDel schedules a dynamic vertex deletion (extension beyond the
// paper: its stated future work).
func (e *Engine) QueueVertexDel(v int32) error {
	if int(v) >= e.pendingNumVertices() || v < 0 {
		return fmt.Errorf("core: vertex %d out of range", v)
	}
	e.queue = append(e.queue, change.Event{VertexDel: &change.VertexDel{V: v}})
	return nil
}

// QueueRebalance schedules an explicit load-rebalancing pass (the paper's
// rebalancing future work): the vertex assignment is adaptively refined
// and relocated rows migrate with their partial results, exactly as in
// Repartition-S but with no new vertices.
func (e *Engine) QueueRebalance() {
	e.queue = append(e.queue, change.Event{Rebalance: &change.Rebalance{}})
}

// Step performs one recombination step:
//
//  1. every processor ships its updated boundary DVs to the neighboring
//     processors (personalized all-to-all, bounded message size),
//  2. received external-boundary DVs relax the local DVs
//     (distance-vector-routing style), optionally followed by the local
//     Floyd–Warshall-style refinement strategy,
//  3. a convergence reduction determines whether updates remain,
//  4. queued dynamic changes are incorporated.
//
// It returns false once the engine is converged and no changes are pending,
// or when an unrecoverable error occurred (see Err).
func (e *Engine) Step() bool {
	if e.err != nil || e.Converged() {
		return false
	}
	start := time.Now()
	sm := e.mark()
	rcOpsBefore, execBefore := e.metrics.RCOps, e.metrics.RCExecOps
	commBefore := e.mach.Stats()
	e.snapshotBusy()
	e.applyFaultSchedule()
	outbox := e.shipBoundary()
	shipped, rowsShipped, fullRows, maxDelta := 0, 0, 0, 0
	width := e.g.NumVertices()
	for _, msgs := range outbox {
		shipped += len(msgs)
		for _, msg := range msgs {
			deltas, err := msg.Deltas()
			if err != nil {
				e.fail(err)
				return false
			}
			rowsShipped += len(deltas)
			for _, d := range deltas {
				if d.Lo == 0 && len(d.D) == width {
					fullRows++
				}
				if len(d.D) > maxDelta {
					maxDelta = len(d.D)
				}
			}
		}
	}
	inbox, xerr := e.mach.Exchange(outbox)
	if xerr != nil {
		e.fail(xerr)
		return false
	}
	if err := e.relaxAll(inbox); err != nil {
		e.fail(err)
		return false
	}
	e.handleFailedDeliveries()
	e.converged = e.reduceConvergence()
	if e.converged && !e.anyDown() {
		e.degraded = false
	}
	stats := StepStats{
		Step:             e.step,
		BoundaryMessages: shipped,
		RowsShipped:      rowsShipped,
		FullRowsShipped:  fullRows,
		Bytes:            e.mach.Stats().Bytes - commBefore.Bytes,
		RelaxOps:         e.metrics.RCOps - rcOpsBefore,
		RelaxExecOps:     e.metrics.RCExecOps - execBefore,
		ConvergedAfter:   e.converged,
		MaxDeltaWidth:    maxDelta,
	}
	e.gatherStepTelemetry(&stats)
	if e.converged {
		// A clean global convergence is an exact fixpoint of the relaxation
		// system (reduceConvergence already refused while any processor was
		// down or messages were in flight): re-anchor the masked kernels'
		// skip rule by clearing every row's dirty frontier, before any
		// queued change perturbs the state again. The fixpoint is exact APSP
		// unless a relax setting keeps it from being one.
		e.clearFrontiers()
		e.exact = e.exactEligible()
	}
	if len(e.queue) > 0 {
		ev := e.queue[0]
		e.queue = e.queue[1:]
		stats.ChangeApplied = describeEvent(ev)
		e.applyEvent(ev)
	}
	if e.inj != nil && (e.step+1)%e.opts.shardEvery == 0 {
		e.writeShards()
	}
	stats.Virtual = e.mach.VirtualTime()
	e.recordStep(stats)
	e.span(obs.KindRCStep, sm, int64(rowsShipped))
	e.step++
	e.metrics.WallTime += time.Since(start)
	if h := e.stepHook.Load(); h != nil {
		(*h)(stats)
	}
	return !e.Converged()
}

// snapshotBusy records every processor's busy virtual time at step start, so
// gatherStepTelemetry can report per-step busy deltas.
func (e *Engine) snapshotBusy() {
	if e.prevBusy == nil {
		e.prevBusy = make([]time.Duration, e.opts.P)
	}
	for p := 0; p < e.opts.P; p++ {
		e.prevBusy[p] = e.mach.BusyTime(p)
	}
}

// gatherStepTelemetry fills the convergence-quality fields of one step's
// StepStats from the per-processor scratch the relax phase left behind.
// Runs on the coordinating goroutine after relaxAll's barrier.
func (e *Engine) gatherStepTelemetry(stats *StepStats) {
	P := e.opts.P
	stats.ProcRows = make([]int, P)
	stats.ProcDirty = make([]int, P)
	stats.ProcBoundary = make([]int, P)
	stats.ProcRelaxOps = make([]int64, P)
	stats.ProcBusy = make([]time.Duration, P)
	var fbits, cells int64
	for i, p := range e.procs {
		stats.ProcRows[i] = p.stepRows
		stats.ProcDirty[i] = p.stepDirty
		stats.ProcBoundary[i] = len(p.cut)
		stats.ProcRelaxOps[i] = p.stepOps
		stats.ProcBusy[i] = e.mach.BusyTime(i) - e.prevBusy[i]
		stats.TotalRows += p.stepRows
		stats.DirtyRows += p.stepDirty
		stats.MaskedOps += p.stepMaskedOps
		w, b := p.table.FrontierStats()
		stats.FrontierWords += w
		fbits += b
		cells += int64(p.table.Len()) * int64(p.table.Cols())
	}
	if cells > 0 {
		stats.BoundGap = float64(fbits) / float64(cells)
	}
	stats.Imbalance = obs.Imbalance(stats.ProcBusy)
	if e.opts.Obs != nil && stats.MaskedOps > 0 {
		// Zero-duration marker span: Value carries the step's masked-op
		// count so aatrace summaries surface how much work the frontier
		// masks let through.
		e.opts.Obs.Record(obs.Span{
			Kind:  obs.KindRCFrontier,
			Proc:  -1,
			Step:  int32(e.step),
			Wall:  e.opts.Obs.Now(),
			Virt:  e.mach.VirtualTime(),
			Value: stats.MaskedOps,
		})
	}
}

// exactEligible reports whether a clean convergence of this engine is exact
// APSP that exact-state steps may rely on: not with a fault injector (a
// restored shard or a lost delivery makes no exact state, and the
// injector's schedule runs beside the relax phase), and not when local
// refinement is off, since RC steps without it can converge short of exact
// APSP.
func (e *Engine) exactEligible() bool {
	return e.inj == nil && e.refines()
}

// refines reports whether relax phases run the local refinement pass.
func (e *Engine) refines() bool { return !e.opts.NoLocalRefine || e.forceRefine }

// clearFrontiers resets every processor's row frontiers at a clean global
// convergence — the fixpoint the masked kernels' soundness argument is
// anchored to.
func (e *Engine) clearFrontiers() {
	for _, p := range e.procs {
		p.table.ClearFrontiers()
	}
}

// describeEvent names a change event for the step history.
func describeEvent(ev change.Event) string {
	switch {
	case ev.Batch != nil:
		return fmt.Sprintf("vertex-batch(%d)", ev.Batch.NumVertices)
	case len(ev.EdgeAdds) > 0:
		return fmt.Sprintf("edge-adds(%d)", len(ev.EdgeAdds))
	case len(ev.EdgeDels) > 0:
		return fmt.Sprintf("edge-dels(%d)", len(ev.EdgeDels))
	case len(ev.WeightChanges) > 0:
		return fmt.Sprintf("weight-changes(%d)", len(ev.WeightChanges))
	case ev.VertexDel != nil:
		return fmt.Sprintf("vertex-del(%d)", ev.VertexDel.V)
	case ev.Rebalance != nil:
		return "rebalance"
	default:
		return "unknown"
	}
}

// Run performs RC steps until convergence (or MaxRCSteps, or an
// unrecoverable error — see Err). It returns the number of steps taken in
// this call.
func (e *Engine) Run() int {
	steps := 0
	for e.err == nil && !e.Converged() && steps < MaxRCSteps {
		e.Step()
		steps++
	}
	return steps
}

// shipBoundary builds the per-processor outboxes of (dirty) local-boundary
// DV updates, one message per destination processor (see Proc.Ship).
func (e *Engine) shipBoundary() [][]transport.Message {
	outbox := make([][]transport.Message, e.opts.P)
	e.mach.Parallel(func(pid int) {
		if e.down(pid) {
			return // crashed processor: ships nothing until it rejoins
		}
		shm := e.markProc(pid)
		// Without an injector every payload is consumed by relaxAll within
		// the step, so the group buffers are reused across steps.
		groups, ops := e.procs[pid].Ship(e.opts.ShipAllBoundary, e.inj == nil)
		for q, deltas := range groups {
			if len(deltas) == 0 {
				continue
			}
			bytes := 0
			for _, d := range deltas {
				bytes += d.WireBytes()
			}
			outbox[pid] = append(outbox[pid], transport.Message{
				To:      q,
				Tag:     transport.TagBoundaryDV,
				Bytes:   bytes,
				Payload: deltas,
			})
		}
		e.mach.Charge(pid, ops)
		e.spanProc(obs.KindRCShip, pid, shm, ops)
	})
	return outbox
}

// relaxAll applies the received boundary deltas on every processor and
// runs the recombination strategy (see Proc.Relax), fanning the relax work
// across opts.Workers goroutines per processor. On an exact state the relax
// phases compute their charge in closed form instead of sweeping, over one
// component labelling of the graph shared by every processor (see
// Proc.exact). It fails, relaxing nothing, on a boundary message that does
// not carry deltas.
func (e *Engine) relaxAll(inbox [][]transport.Message) error {
	refine := e.refines()
	workers := e.opts.Workers
	if workers < 1 {
		workers = 1
	}
	// flatten each processor's received boundary deltas in delivery order
	exts := make([][]*dv.Delta, e.opts.P)
	for pid, msgs := range inbox {
		for _, msg := range msgs {
			if msg.Tag != transport.TagBoundaryDV {
				continue
			}
			deltas, err := msg.Deltas()
			if err != nil {
				return err
			}
			exts[pid] = append(exts[pid], deltas...)
		}
	}
	var exact *components
	if e.exact && !e.opts.forceExec {
		exact = labelComponents(e.g)
	}
	e.mach.Parallel(func(pid int) {
		p := e.procs[pid]
		if e.down(pid) {
			p.skipStep() // crashed processor: no relax work until it rejoins
			return
		}
		rm := e.markProc(pid)
		p.curStep = int32(e.step)
		p.exact = exact
		ops := p.Relax(exts[pid], refine, workers, e.opts.tileSize)
		// The paper's OpenMP accounting: the relax wall-cost of the step
		// divides over the processor's worker threads.
		e.mach.Charge(pid, ops/int64(workers))
		addOps(&e.metrics.RCOps, ops)
		if exact == nil {
			addOps(&e.metrics.RCExecOps, ops)
		}
		e.spanProc(obs.KindRCRelax, pid, rm, ops)
	})
	e.mach.Barrier()
	return nil
}

// reduceConvergence performs the "no more updates in any processor"
// reduction, charging an allreduce over the tree.
func (e *Engine) reduceConvergence() bool {
	rounds := 0
	for 1<<rounds < e.opts.P {
		rounds++
	}
	// up + down sweep of one tiny message per round
	md := e.mach.Model()
	e.mach.Barrier()
	for p := 0; p < e.opts.P; p++ {
		e.mach.ChargeDuration(p, time.Duration(2*rounds)*(md.O+md.L+md.O))
	}
	e.mach.Barrier()
	// A crashed processor has un-reshipped state and delayed messages carry
	// undelivered updates: neither situation can be convergence.
	if e.anyDown() || e.mach.InFlight() > 0 {
		return false
	}
	for _, p := range e.procs {
		if p.hasUpdate {
			return false
		}
	}
	return true
}

// applyEvent incorporates one dynamic change event (end of an RC step).
func (e *Engine) applyEvent(ev change.Event) {
	cm := e.mark()
	defer e.span(obs.KindChange, cm, 0)
	// The state stays exact APSP only through Fig. 3 absorptions (absorbEdge)
	// that start from a clean convergence: vertex batches, edge additions and
	// weight decreases. The paths inside those events that change the DV
	// state any other way — Repartition-S, the IA reset of a weight
	// increase, an edge to a deleted vertex — clear the bit themselves.
	e.exact = e.exact && e.converged && (ev.Batch != nil || len(ev.EdgeAdds) > 0 || len(ev.WeightChanges) > 0)
	switch {
	case ev.Batch != nil:
		e.applyBatch(ev.Batch)
	case len(ev.EdgeAdds) > 0:
		e.applyEdgeAdds(ev)
	case len(ev.EdgeDels) > 0:
		e.applyEdgeDels(ev.EdgeDels)
	case len(ev.WeightChanges) > 0:
		e.applyWeightChanges(ev.WeightChanges)
	case ev.VertexDel != nil:
		e.applyVertexDel(ev.VertexDel.V)
	case ev.Rebalance != nil:
		e.applyRepartition(&change.VertexBatch{})
	}
	e.converged = false
	e.refreshWeightProfile()
	e.refreshLoadMetrics()
}

// refreshLoadMetrics recomputes the per-processor load snapshot.
func (e *Engine) refreshLoadMetrics() {
	e.metrics.ProcVertices = e.part.Sizes()
	e.metrics.ProcCutSizes = graph.CutSizes(e.g, e.part)
}

// addOps accumulates a work counter from inside Parallel bodies, which run
// concurrently, so the add must be atomic.
func addOps(dst *int64, v int64) {
	atomic.AddInt64(dst, v)
}
