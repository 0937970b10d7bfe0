package core

import (
	"fmt"

	"anytime/internal/change"
	"anytime/internal/dv"
	"anytime/internal/graph"
	"anytime/internal/obs"
	"anytime/internal/sssp"
)

// Proc is the per-processor unit of the paper's DD → IA → RC pipeline: one
// part's sub-graph view, its DV table, and the scratch of one RC step. It is
// the only implementation of the per-processor operations — table from the
// local vertex set, local/global IA, boundary shipping, relax + refine,
// failed-delivery re-mark, the two rejoin markings, shard restore and the
// quality counters — and each operation returns the op count the simulator
// charges for it. Both runtimes drive the same unit: the in-process Engine
// wraps P of them in cluster.Machine fan-out, LogP charges and spans; the
// multi-process rank.Runner wraps one in its transport.
//
// g and part are shared with the owner (the Engine's P units share one
// graph and one partition) and are never mutated through the unit except by
// ApplyEvents, the Runner-side absorption.
type Proc struct {
	id   int
	g    *graph.Graph
	part *graph.Partition

	sub   *graph.Sub
	table *dv.Matrix

	// per-step scratch, owned by the goroutine running this unit's step
	changed    []bool // parallel to table.Rows(): row improved this step
	pivot      []bool // rows dirty at step start: un-propagated content
	startDirty []bool
	stepOps    int64
	// stepMaskedOps is the subset of stepOps performed through masked
	// sweeps (columns actually visited under a frontier mask).
	stepMaskedOps int64
	stepRows      int  // row count observed by the last relax phase
	stepDirty     int  // rows still dirty after the last relax phase
	hasUpdate     bool // a local-boundary row is dirty: the vote against convergence
	// maskOff mirrors Options.NoFrontierMask: full-row sweeps everywhere.
	maskOff bool

	// observability: the span tracer (nil = disabled) and the RC step
	// counter at the start of the current relax phase, for the tile-round
	// spans emitted from inside the worker pool (parallel.go).
	tr      *obs.Tracer
	curStep int32

	// boundary-shipping scratch: shipSeen is a stamp array over destination
	// parts (shipSeen[q] == shipStamp means part q already gets this row),
	// shipGroups collects each destination's deltas.
	shipSeen   []int64
	shipStamp  int64
	shipGroups [][]*dv.Delta
}

// NewProc builds the unit of part id over the shared graph and partition,
// with a fresh table holding one (all-Inf) row per local vertex — the state
// the IA phase starts from.
func NewProc(id int, g *graph.Graph, part *graph.Partition) *Proc {
	p := newProc(id, g, part)
	p.resetTable(nil)
	return p
}

// newProc builds the unit without a table (Restore installs the
// checkpointed one).
func newProc(id int, g *graph.Graph, part *graph.Partition) *Proc {
	return &Proc{
		id:         id,
		g:          g,
		part:       part,
		sub:        graph.ExtractSub(g, part, int32(id)),
		shipSeen:   make([]int64, part.K),
		shipGroups: make([][]*dv.Delta, part.K),
	}
}

// Table returns the unit's DV matrix (rows for local vertices only).
func (p *Proc) Table() *dv.Matrix { return p.table }

// HasUpdate reports whether a local-boundary row is dirty — this unit's
// vote against convergence.
func (p *Proc) HasUpdate() bool { return p.hasUpdate }

// isAlive reads a liveness mask in which nil means "every vertex is alive"
// (the Runner has no deletions).
func isAlive(alive []bool, v int32) bool { return alive == nil || alive[v] }

// rebuild re-extracts the sub-graph view (local, boundary and
// local-boundary sets) after a topology or partition change.
func (p *Proc) rebuild(part *graph.Partition) {
	p.part = part
	p.sub = graph.ExtractSub(p.g, part, int32(p.id))
}

// resetTable replaces the table with a fresh one holding a row per live
// local vertex, keeping the resize-copy accounting of the table it drops.
func (p *Proc) resetTable(alive []bool) {
	t := dv.NewMatrix(p.g.NumVertices())
	for _, v := range p.sub.Local {
		if isAlive(alive, v) {
			t.AddRow(v)
		}
	}
	if p.table != nil {
		t.ResizeCopies = p.table.ResizeCopies
	}
	p.table = t
}

// grow widens the table by count columns for the new vertices
// first..first+count-1 and adds a row (D[v]=0, rest ∞, born dirty and
// ship-all) for each one this unit owns.
func (p *Proc) grow(first, count int) {
	p.table.ExtendCols(count)
	for v := first; v < first+count; v++ {
		if int(p.part.Part[v]) == p.id {
			p.table.AddRow(int32(v))
		}
	}
}

// IA runs the initial-approximation search from each of rows' owners into
// the row: restricted to local-only paths (the paper's IA), or — global —
// over the whole graph, which on fresh rows is the exact answer. It must
// run on fresh rows: Dijkstra/BFS never re-expands an entry that already
// holds a finite (stale-but-correct) distance, so re-sweeping a table would
// NOT repair it. Unit-weight graphs degenerate Dijkstra to plain BFS,
// dropping the heap entirely. Returns the search op count.
func (p *Proc) IA(rows []*dv.Row, global, unitWeight bool, workers int) int64 {
	sources := make([]int32, len(rows))
	slices := make([][]graph.Dist, len(rows))
	hops := make([][]int32, len(rows))
	for i, r := range rows {
		sources[i] = r.Owner
		slices[i] = r.D
		hops[i] = r.NH
	}
	mask := p.sub.IsLocal
	if global {
		mask = nil
	}
	if unitWeight {
		return sssp.MultiSourceHopsBFS(p.g, sources, slices, hops, mask, workers)
	}
	return sssp.MultiSourceHops(p.g, sources, slices, hops, mask, workers)
}

// Ship builds this step's outgoing boundary deltas: for every dirty
// local-boundary row (every one, with shipAll — the ablation), one snapshot
// shared by all adjacent parts. Rows ship as deltas: only the column window
// changed since the row's last ship travels, with a full-row fallback for
// rows whose change extent is unknown (fresh, migrated, or
// topology-disturbed rows). The returned groups are indexed by destination
// part (empty = nothing to send); ops is the snapshot cost.
//
// reuse keeps the groups' backing arrays across steps so the hot path does
// not allocate per row. It is only safe when the previous step's payloads
// were consumed within that step; a lossy network or fault wrapper can hold
// a payload across the step boundary (a delayed delivery releases at the
// NEXT exchange), so those callers pass false and get fresh slices.
func (p *Proc) Ship(shipAll, reuse bool) (groups [][]*dv.Delta, ops int64) {
	for q := range p.shipGroups {
		if reuse {
			p.shipGroups[q] = p.shipGroups[q][:0]
		} else {
			p.shipGroups[q] = nil
		}
	}
	for _, v := range p.sub.LocalBoundary {
		r := p.table.Row(v)
		if r == nil {
			continue // deleted vertex
		}
		if !r.Dirty && !shipAll {
			continue
		}
		// one snapshot shipped to every adjacent part; the dirty mark
		// clears at the end of Relax (unless the row changes again), the
		// pending window clears here, once the snapshot is taken
		p.shipStamp++
		var snap *dv.Delta
		for _, a := range p.g.Neighbors(int(v)) {
			q := p.part.Part[a.To]
			if int(q) == p.id || p.shipSeen[q] == p.shipStamp {
				continue
			}
			p.shipSeen[q] = p.shipStamp
			if snap == nil {
				if shipAll {
					snap = r.FullDelta()
				} else {
					snap = r.ShipDelta()
				}
				if p.maskOff {
					// MinPlusHopsRec ran with rec == nil here, so the
					// row's frontier bits are stale — never ship them.
					snap.F = nil
				}
				ops += int64(len(snap.D))
			}
			p.shipGroups[q] = append(p.shipGroups[q], snap)
		}
		if snap != nil {
			r.ClearPending()
		}
	}
	return p.shipGroups, ops
}

// Relax applies the received boundary deltas (in delivery order) and runs
// the recombination strategy (tiled local refinement) across workers
// goroutines (see parallel.go). Rows that entered the step dirty carry
// un-propagated content (just shipped, or freshly disturbed by a dynamic
// change — including *interior* rows such as a new vertex with no cut edge,
// which are never shipped): with refinement enabled they are pivoted
// through the local rows, after which their dirty mark is cleared unless
// they changed again. It returns the relax op count and leaves the step's
// row/dirty counts and the convergence vote (HasUpdate) behind.
func (p *Proc) Relax(ext []*dv.Delta, refine bool, workers, tile int) int64 {
	rows := p.table.Rows()
	p.changed = resizeBools(p.changed, len(rows))
	p.pivot = resizeBools(p.pivot, len(rows))
	p.startDirty = resizeBools(p.startDirty, len(rows))
	for i, r := range rows {
		p.startDirty[i] = r.Dirty
		p.pivot[i] = refine && r.Dirty
	}
	p.stepOps = p.relaxStep(ext, refine, workers, tile)
	// startDirty rows were shipped (boundary) and/or locally pivoted:
	// their content is propagated; keep the mark only if they changed
	// again this step. The same pass counts the rows left dirty — the
	// per-step convergence-quality telemetry.
	dirty := 0
	for i, r := range rows {
		if p.startDirty[i] && !p.changed[i] {
			r.ClearDirty()
		}
		if r.Dirty {
			dirty++
		}
	}
	p.stepRows = len(rows)
	p.stepDirty = dirty
	p.refreshHasUpdate()
	return p.stepOps
}

// skipStep zeroes the step scratch of a unit that sat a step out (crashed
// processor), so the step's stats do not re-report its last live phase.
func (p *Proc) skipStep() {
	p.stepOps = 0
	p.stepMaskedOps = 0
	p.stepRows = p.table.Len()
	p.stepDirty = 0
}

// refreshHasUpdate rescans the local boundary for dirty rows — the
// convergence vote after a relax phase or a topology change.
func (p *Proc) refreshHasUpdate() {
	p.hasUpdate = false
	for _, v := range p.sub.LocalBoundary {
		if r := p.table.Row(v); r != nil && r.Dirty {
			p.hasUpdate = true
			break
		}
	}
}

// resizeBools returns a false-filled bool slice of length n, reusing the
// capacity of b.
func resizeBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// ClearFrontiers resets every row's change-frontier bitmask (and FAll
// marks). Callers invoke it only at a clean global convergence — an exact
// fixpoint with every processor alive and nothing in flight, the anchor
// state from which the masked min-plus skip rule is provably sound — and at
// the same step boundary on every unit, so frontier epochs (and masked
// sweeps) stay identical across deployment shapes.
func (p *Proc) ClearFrontiers() { p.table.ClearFrontiers() }

// Quality scans the table for the anytime-quality triple every gauge
// derives from: rows, rows still dirty, and set frontier bits.
func (p *Proc) Quality() (rows, dirty int, frontierBits int64) {
	for _, r := range p.table.Rows() {
		if r.Dirty {
			dirty++
		}
	}
	_, frontierBits = p.table.FrontierStats()
	return p.table.Len(), dirty, frontierBits
}

// ReMarkFailed re-marks the rows of a boundary message that was not
// delivered (a real send failure, an injected fault that exhausted the
// resend budget, or a delayed delivery released into the wrong exchange)
// for a full re-ship. The sender cleared their pending windows when it
// shipped them, so without the re-mark the receivers would never see the
// lost updates. Call it after Relax so the marks survive the end-of-step
// dirty clearing.
func (p *Proc) ReMarkFailed(deltas []*dv.Delta) {
	for _, d := range deltas {
		if r := p.table.Row(d.Owner); r != nil {
			r.MarkShipAll()
			p.hasUpdate = true
		}
	}
}

// MarkAllShipAll marks every row for a full re-ship — the rejoiner's half
// of the rejoin protocol: its restored rows must re-reach every neighbor,
// whatever the shard lost. Returns the op count (one per row).
func (p *Proc) MarkAllShipAll() int64 {
	for _, r := range p.table.Rows() {
		r.MarkShipAll()
	}
	p.hasUpdate = p.table.Len() > 0
	return int64(p.table.Len())
}

// MarkRejoinShipAll is the survivors' half of the rejoin protocol: every
// local-boundary row adjacent to the rejoined part pid is marked for a full
// re-ship, so the restored rows re-receive everything they missed — the
// row-migration pattern of Repartition-S, whose dirty cascade provably
// reconverges to the sequential oracle. Returns the op count (adjacency
// entries scanned).
func (p *Proc) MarkRejoinShipAll(pid int32) int64 {
	var ops int64
	for _, v := range p.sub.LocalBoundary {
		r := p.table.Row(v)
		if r == nil {
			continue
		}
		for _, a := range p.g.Neighbors(int(v)) {
			ops++
			if p.part.Part[a.To] == pid {
				r.MarkShipAll()
				p.hasUpdate = true
				break
			}
		}
	}
	return ops
}

// ReseedDirectEdges re-seeds every row's incident direct edges (the IA
// seed) and returns the op count. This is what makes restore-from-shard
// and partial-result migration sound: an edge added after a row was last
// written is represented in neither endpoint's row, and row-composition
// relaxation can never rediscover a direct edge on its own — relaxing
// through row v requires a finite D[v] first. Exactness of the min-plus
// fixed point needs every live edge represented in its endpoints' rows;
// one-hop re-seeding restores that invariant, each seed is a valid upper
// bound, and an improved row turns dirty.
func (p *Proc) ReseedDirectEdges() int64 {
	var ops int64
	for _, row := range p.table.Rows() {
		for _, a := range p.g.Neighbors(int(row.Owner)) {
			row.RelaxVia(a.To, a.Weight, a.To)
			ops++
		}
	}
	return ops
}

// RestoreShard replaces the table with a recovery shard, reconciled
// against the current graph: shard rows still locally owned and alive are
// installed (columns added since the shard stay at InfDist); current local
// vertices missing from the shard (added or migrated in during the shard
// interval) get fresh rows; every row is then re-seeded with its direct
// edges. Every resulting value is a valid upper bound, so the min-plus
// relaxation reconverges from it. Returns the re-seed op count; on error
// the table is untouched.
func (p *Proc) RestoreShard(shard []byte, alive []bool) (int64, error) {
	t, _, err := DecodeShard(shard, p.g.NumVertices(), func(owner int32) bool {
		// Deleted or migrated away since the shard: skip its values.
		return isAlive(alive, owner) && int(p.part.Part[owner]) == p.id
	})
	if err != nil {
		return 0, fmt.Errorf("core: processor %d: %w", p.id, err)
	}
	for _, v := range p.sub.Local {
		if isAlive(alive, v) && !t.Has(v) {
			t.AddRow(v)
		}
	}
	p.table = t
	return p.ReseedDirectEdges(), nil
}

// ApplyEvents is the Runner-side absorption of one step's event list: the
// shared graph and partition advance through the log (round-robin
// placement), the table grows columns and owned rows for the new vertices,
// and every *owned* endpoint row of a new or lowered edge is re-seeded
// with the direct edge and marked for a full re-ship — the edge-addition
// invariant (every live edge represented in its endpoints' rows) that makes
// the min-plus fixed point exact. The events join the log's journal and the
// sub-graph view is rebuilt afterwards. Every live rank must call this with
// the same events at the same step boundary.
func (p *Proc) ApplyEvents(log *EventLog, evs []change.Event) error {
	if len(evs) == 0 {
		return nil
	}
	for _, ev := range evs {
		res, err := log.apply(p.g, p.part, ev, log.roundRobin)
		if err != nil {
			return err
		}
		log.journal = append(log.journal, ev)
		p.grow(res.first, res.count)
		for _, ed := range res.edges {
			if r := p.table.Row(int32(ed.u)); r != nil {
				r.RelaxVia(int32(ed.v), graph.Dist(ed.w), int32(ed.v))
				r.MarkShipAll()
			}
			if r := p.table.Row(int32(ed.v)); r != nil {
				r.RelaxVia(int32(ed.u), graph.Dist(ed.w), int32(ed.u))
				r.MarkShipAll()
			}
		}
	}
	p.rebuild(p.part)
	p.refreshHasUpdate()
	return nil
}
