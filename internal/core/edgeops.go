package core

import (
	"anytime/internal/change"
	"anytime/internal/dv"
	"anytime/internal/graph"
	"anytime/internal/kernel"
	"anytime/internal/transport"
)

// applyEdgeAdds incorporates an edge-addition event: the log resolves it
// against the graph (new edges inserted, lighter duplicates lowered, heavier
// ones dropped) and returns every edge that changed the graph, for
// absorbEdges.
func (e *Engine) applyEdgeAdds(ev change.Event) []resolvedEdge {
	res, err := e.log.apply(e.g, e.part, ev, nil, e.alive)
	if err != nil {
		e.fail(err)
		return nil
	}
	return res.edges
}

// absorbWindowDists bounds the endpoint snapshots one absorbEdges fan-out
// holds (two rows per improving edge): 4M distances, 16 MB. A window holds
// every improving edge of a batch at the benchmark sizes; a larger event
// absorbs in consecutive windows.
const absorbWindowDists = 1 << 22

// absorption is absorbEdges' scratch, kept on the Engine across events.
type absorption struct {
	inS   []bool    // by vertex: owns an endpoint of the event's edges
	sRows []*dv.Row // S: the rows of those endpoints

	// the current window: every edge's owners for the LogP replay, the
	// improving edges in order with their endpoint snapshots (two rows
	// each in snaps) and pruned-scan targets, and ops[pid][j], processor
	// pid's scan ops for imp[j]
	steps   []absorbStep
	imp     []improvingEdge
	snaps   []graph.Dist
	targets []edgeTargets
	ops     [][]int64
}

// absorbStep is one edge of a window: the processors that broadcast its
// endpoint rows, and its index in the window's improving edges (-1: none).
type absorbStep struct{ ownerU, ownerV, imp int }

// improvingEdge is an edge {u,v,w} that shortens D(u,v), with the
// snapshots of its endpoint rows taken just before it is absorbed, and its
// target lists on a pruned scan (nil: full scan).
type improvingEdge struct {
	u, v    int32
	w       graph.Weight
	du, dvv []graph.Dist
	tg      *edgeTargets
}

// absorbEdges updates the DV state for edges that just entered the graph
// or had their weight lowered, in event order (Fig. 3 lines 19-44). For
// each edge {u,v,w}: a cut edge joins its endpoints' cut rows, the rows of
// both endpoints are tree-broadcast, and — if the edge actually shortens
// the u-v distance — every processor relaxes its local rows through the
// new edge in both directions:
//
//	D(x,t) = min(D(x,t), D(x,u)+w+D_v(t), D(x,v)+w+D_u(t))
//
// dynamicCut, when true, counts a created cut edge into the metrics. Both
// endpoints are live: no edge to a deleted vertex enters the graph
// (admission refuses it, EventLog.apply and applyWeightChanges drop it).
//
// The scan runs row-major (DESIGN.md §14, "Row-major order"): the update
// of row x for edge j reads only row x and the snapshots of j's endpoint
// rows, taken after the edges before j. So the rows of S, the endpoints
// of the event's edges, take the edges one by one on the coordinator,
// where the snapshots are taken; one fan-out then has every other row take
// the improving edges in order while it is in cache; and the LogP calls
// are replayed in the per-edge order. Rows, charges and virtual time are
// those of absorbing the edges one at a time.
//
// On an exact APSP matrix the update leaves an exact APSP matrix of the
// grown graph: a shortest path uses the new edge at most once, and the two
// compositions above are exactly the paths that do. So the Engine's exact
// bit (DESIGN.md, "Exact-state steps") survives an absorption.
func (e *Engine) absorbEdges(edges []resolvedEdge, dynamicCut bool) {
	e.absorbWindows(edges, dynamicCut, max(1, absorbWindowDists/(2*e.g.NumVertices())))
}

// absorbWindows is absorbEdges with windows of at most window improving
// edges: each window runs the three parts in turn.
func (e *Engine) absorbWindows(edges []resolvedEdge, dynamicCut bool, window int) {
	if len(edges) == 0 {
		return
	}
	a := &e.absorb
	a.collect(e, edges)
	defer a.release()
	for len(edges) > 0 && e.err == nil {
		k := e.absorbEndpoints(edges, window, dynamicCut)
		e.absorbOthers()
		e.replayAbsorption()
		edges = edges[k:]
	}
}

// collect marks S, the endpoints of edges, and lists their rows.
func (a *absorption) collect(e *Engine, edges []resolvedEdge) {
	if n := e.g.NumVertices(); len(a.inS) < n {
		a.inS = append(a.inS, make([]bool, n-len(a.inS))...)
	}
	for len(a.ops) < e.opts.P {
		a.ops = append(a.ops, nil)
	}
	for _, ed := range edges {
		for _, x := range [2]int{ed.u, ed.v} {
			if a.inS[x] {
				continue
			}
			a.inS[x] = true
			a.sRows = append(a.sRows, e.procs[e.part.Part[x]].table.Row(int32(x)))
		}
	}
}

// release clears S for the next event.
func (a *absorption) release() {
	for _, r := range a.sRows {
		a.inS[r.Owner] = false
	}
	a.sRows = a.sRows[:0]
}

// absorbEndpoints is the coordinator's part of absorbEdges: it takes the
// edges in order until window of them improve, and returns how many it
// took. Per edge it links the cut rows, marks the endpoint rows for a full
// ship and, for an improving edge, snapshots the endpoint rows, compiles
// the pruned targets from a clean convergence, and relaxes every row of S
// through the edge.
func (e *Engine) absorbEndpoints(edges []resolvedEdge, window int, dynamicCut bool) int {
	a := &e.absorb
	width := e.g.NumVertices()
	if k := min(window, len(edges)); cap(a.snaps) < 2*k*width {
		a.snaps = make([]graph.Dist, 0, 2*k*width)
	}
	for len(a.targets) < min(window, len(edges)) {
		a.targets = append(a.targets, edgeTargets{})
	}
	a.steps, a.imp, a.snaps = a.steps[:0], a.imp[:0], a.snaps[:0]
	for pid := range a.ops {
		a.ops[pid] = a.ops[pid][:0]
	}
	i := 0
	for ; i < len(edges) && len(a.imp) < window; i++ {
		ed := edges[i]
		e.metrics.EdgesAdded++
		if dynamicCut && e.part.Part[ed.u] != e.part.Part[ed.v] {
			e.metrics.NewCutEdges++
		}
		st := absorbStep{ownerU: int(e.part.Part[ed.u]), ownerV: int(e.part.Part[ed.v]), imp: -1}
		e.procs[st.ownerU].link(ed.u, ed.v)
		e.procs[st.ownerV].link(ed.v, ed.u)
		rowU := e.procs[st.ownerU].table.Row(int32(ed.u))
		rowV := e.procs[st.ownerV].table.Row(int32(ed.v))
		// The edge's endpoints are the only vertices whose part-adjacency
		// the new edge can change: each may now border a part that has
		// never seen any version of its row, so their next ship carries the
		// full row. Every other row keeps its delta window (its receivers
		// are unchanged). The frontier survives: every endpoint-row change
		// below goes through a recorded relax scan, so the change extent
		// stays exactly tracked and receivers can still mask their sweeps.
		rowU.MarkShipFull()
		rowV.MarkShipFull()
		a.steps = append(a.steps, st)
		// Fig. 3 line 26: only edges that improve the endpoint distance
		// trigger the update pass.
		if graph.AddDist(rowU.D[int32(ed.v)], 0) <= ed.w {
			continue
		}
		a.steps[len(a.steps)-1].imp = len(a.imp)
		x := improvingEdge{u: int32(ed.u), v: int32(ed.v), w: ed.w}
		a.snaps = append(a.snaps, rowU.D...)
		x.du = a.snaps[len(a.snaps)-len(rowU.D):]
		a.snaps = append(a.snaps, rowV.D...)
		x.dvv = a.snaps[len(a.snaps)-len(rowV.D):]
		// The event started from a clean convergence (Step computed the
		// flag just before applying it, and every edge absorbed since was
		// a Fig. 3 update), so the DV state is an exact APSP matrix and the
		// scan may be pruned to the affected rows and targets.
		if e.converged {
			x.tg = &a.targets[len(a.imp)]
			x.tg.build(x.w, x.du, x.dvv)
		}
		a.imp = append(a.imp, x)
		for pid := range a.ops {
			a.ops[pid] = append(a.ops[pid], 0)
		}
		j := len(a.imp) - 1
		for _, r := range a.sRows {
			a.ops[e.part.Part[r.Owner]][j] += relaxViaEdge(r, x.u, x.v, x.w, x.du, x.dvv, x.tg)
		}
	}
	return i
}

// absorbOthers is absorbEdges' one fan-out: every processor walks its rows
// outside S once, and each row takes the window's improving edges in order.
func (e *Engine) absorbOthers() {
	a := &e.absorb
	if len(a.imp) == 0 {
		return
	}
	e.mach.Parallel(func(pid int) {
		ops := a.ops[pid]
		for _, r := range e.procs[pid].table.Rows() {
			if a.inS[r.Owner] {
				continue
			}
			for j := range a.imp {
				x := &a.imp[j]
				ops[j] += relaxViaEdge(r, x.u, x.v, x.w, x.du, x.dvv, x.tg)
			}
		}
	})
}

// replayAbsorption makes the window's LogP calls in per-edge order: the
// two endpoint-row broadcasts of every edge and, for an improving edge,
// each processor's scan ops and the barrier that closes the scan.
func (e *Engine) replayAbsorption() {
	a := &e.absorb
	bytes := 4*e.g.NumVertices() + 8
	for _, st := range a.steps {
		for _, root := range [2]int{st.ownerU, st.ownerV} {
			if _, err := e.mach.Broadcast(root, transport.Message{Tag: transport.TagNewVertexRow, Bytes: bytes}); err != nil {
				e.fail(err)
				return
			}
		}
		if st.imp < 0 {
			continue
		}
		for pid, ops := range a.ops {
			e.mach.Charge(pid, ops[st.imp])
			e.metrics.ChangeOps += ops[st.imp]
		}
		e.mach.Barrier()
	}
}

// edgeTargets are the two target lists of a pruned Fig. 3 scan for an edge
// {u,v,w}, compiled from the endpoint snapshots: viaU holds the targets t
// with w + D(v,t) < D(u,t), the only columns the prefix x → u → v can
// improve, and viaV the mirror image. The Engine keeps one per improving
// edge of an absorption window as scratch.
type edgeTargets struct {
	bits       kernel.Bitset
	arena      []uint32
	viaU, viaV kernel.BlockMask
}

// build compiles the target lists of an edge of weight w between the
// endpoints whose rows are du and dvv.
func (tg *edgeTargets) build(w graph.Weight, du, dvv []graph.Dist) {
	n := len(du)
	if len(dvv) < n {
		n = len(dvv)
	}
	if words := kernel.BitsetWords(n); cap(tg.bits) < words {
		tg.bits = kernel.NewBitset(n)
	} else {
		tg.bits = tg.bits[:words]
	}
	tg.arena = tg.arena[:0]
	tg.compile(&tg.viaU, w, du[:n], dvv[:n])
	tg.compile(&tg.viaV, w, dvv[:n], du[:n])
}

// compile lists into m the targets t at which the edge followed by far's
// row beats from's row: w + far[t] < from[t].
func (tg *edgeTargets) compile(m *kernel.BlockMask, w graph.Weight, from, far []graph.Dist) {
	tg.bits.Reset()
	for t, d := range far {
		if graph.AddDist(d, w) < from[t] {
			tg.bits.Set(t)
		}
	}
	tg.arena = m.Compile(tg.arena, tg.bits, len(far))
}

// relaxViaEdge performs the Fig. 3 lines 27-33 scan for one local row x
// against a new edge {u,v,w}: every target t is tested against the two
// compositions through the edge,
//
//	D(x,t) = min(D(x,t), D(x,u)+w+D_v(t), D(x,v)+w+D_u(t)),
//
// using the broadcast snapshots of the endpoint rows. The full scan is the
// paper's immediate-update cost — the very overhead that makes
// Repartition-S preferable for large batches — and is what the returned
// operation count charges, whichever scan runs.
//
// With tg (from a DV state that is an exact APSP matrix) the scan is
// pruned without changing its result. By the triangle inequality D(x,t) <=
// D(x,v) + D(v,t), the prefix x → u → v can only improve D(x,t) if D(x,u)+w
// < D(x,v), an O(1) test on the row; and by D(x,t) <= D(x,u) + D(u,t) only
// at the targets t with w + D(v,t) < D(u,t), which tg.viaU lists; the
// other prefix likewise. Every skipped composition is provably
// non-improving, so distances and changed windows are the full scan's, and
// the frontier records the same [lo,hi) hull.
func relaxViaEdge(x *dv.Row, u, v int32, w graph.Weight, du, dvv []graph.Dist, tg *edgeTargets) int64 {
	xu := graph.AddDist(x.D[u], w) // prefix x → u → v
	xv := graph.AddDist(x.D[v], w) // prefix x → v → u
	if xu == graph.InfDist && xv == graph.InfDist {
		return 2
	}
	// Snapshots may be narrower than x.D if columns were extended after
	// they were taken; the missing tail is InfDist.
	n := len(x.D)
	if len(du) < n {
		n = len(du)
	}
	if len(dvv) < n {
		n = len(dvv)
	}
	xD := x.D[:n]
	// Two kernel passes over the two compositions. Equivalent to the fused
	// per-target min: every applied update is a strict decrease, and the
	// second pass compares against the first pass's result.
	viaU, viaV := xu != graph.InfDist, xv != graph.InfDist
	var toV, toU *kernel.BlockMask
	if tg != nil {
		// The row tests read D(x,v) before the first pass, which may lower it.
		viaU, viaV = xu < x.D[v], xv < x.D[u]
		toV, toU = &tg.viaU, &tg.viaV
	}
	if viaU {
		relaxPrefix(x, xD, dvv[:n], xu, toV)
	}
	if viaV {
		relaxPrefix(x, xD, du[:n], xv, toU)
	}
	return 2 * int64(n)
}

// relaxPrefix is one pass of the Fig. 3 scan: row x (its view xD) through
// a prefix of length add followed by the far endpoint's snapshot src — at
// every target, or only at those listed in targets when it is non-nil. The
// changed window lands in x's frontier as a hull, so later masked sweeps
// see it, and in x's pending ship window.
func relaxPrefix(x *dv.Row, xD, src []graph.Dist, add graph.Dist, targets *kernel.BlockMask) {
	var lo, hi int
	if targets == nil {
		lo, hi = kernel.MinPlusWindow(xD, src, add)
	} else {
		lo, hi = kernel.MinPlusBlocks(xD, src, add, targets, nil, 0)
	}
	if lo < hi {
		if x.F != nil {
			x.F.SetRange(lo, hi)
		}
		x.MarkChanged(lo, hi)
	}
}

// applyEdgeDels incorporates dynamic edge deletions. Deletions invalidate
// the monotone upper-bound invariant (previously computed shortest paths
// may have used the deleted edges), so the engine falls back to the
// anytime property at a coarser granularity: it keeps the partition (DD is
// reused) and recomputes the IA phase, after which RC steps reconverge.
// This mirrors the role of the paper's companion edge-deletion work.
func (e *Engine) applyEdgeDels(dels []change.EdgeDel) {
	removed := 0
	for _, d := range dels {
		if err := e.g.RemoveEdge(int(d.U), int(d.V)); err == nil {
			removed++
		}
	}
	if removed == 0 {
		return
	}
	e.resetDVs()
}

// applyVertexDel incorporates a dynamic vertex deletion (the paper's
// future work): all incident edges are removed, the vertex's row is
// dropped, and its column decays to InfDist after the DV reset. The vertex
// ID remains allocated (tombstone) and is excluded from centrality.
func (e *Engine) applyVertexDel(v int32) {
	if int(v) >= len(e.alive) || !e.alive[v] {
		return
	}
	for _, a := range append([]graph.Arc(nil), e.g.Neighbors(int(v))...) {
		if err := e.g.RemoveEdge(int(v), int(a.To)); err != nil {
			panic(err)
		}
	}
	e.alive[v] = false
	e.resetDVs() // the fresh tables hold no row for v
}

// resetDVs drops all distance state and recomputes the IA phase over the
// current topology, reusing the existing partition (anytime reuse of the
// DD phase). All boundary rows become dirty, so the following RC steps
// rebuild the global solution. Edges may have gone: the cut rows are
// rebuilt too.
func (e *Engine) resetDVs() {
	e.mach.Parallel(func(pid int) {
		p := e.procs[pid]
		p.findCut()
		p.resetTable(e.alive)
	})
	e.initialApproximation()
	// The reset invalidated the monotone upper-bound invariant for any
	// older state: stale recovery shards could restore distances through
	// now-deleted edges, so every shard is rewritten from the fresh tables.
	e.writeShards()
	e.forceRefine = true
	e.converged = false
	e.exact = false
}

// applyWeightChanges incorporates dynamic edge-weight changes. A decrease
// behaves exactly like an edge addition with a better weight: it is
// returned for the incremental immediate-update scan, and RC steps
// re-converge. An increase (or a change to a non-existent edge) breaks the
// monotone upper-bound invariant, so — like deletions — the engine reuses
// the partition but recomputes the IA phase: reset reports it, and the
// caller resets after absorbing the decreases. The decreases touch only
// the rows of their endpoints' distances, never the graph, so absorbing
// them after the increases are in the graph gives the DV state and the
// counters of absorbing each in turn.
func (e *Engine) applyWeightChanges(chs []change.EdgeWeight) (lowered []resolvedEdge, reset bool) {
	for _, c := range chs {
		if !e.Alive(c.U) || !e.Alive(c.V) {
			continue // the vertex was deleted after the change was admitted
		}
		old, ok := e.g.EdgeWeight(int(c.U), int(c.V))
		switch {
		case !ok || c.Weight > old:
			if ok {
				if err := e.g.RemoveEdge(int(c.U), int(c.V)); err != nil {
					panic(err)
				}
			}
			if err := e.g.AddEdge(int(c.U), int(c.V), c.Weight); err != nil {
				panic(err)
			}
			reset = true
		case c.Weight < old:
			if _, err := e.g.AddOrLowerEdge(int(c.U), int(c.V), c.Weight); err != nil {
				panic(err)
			}
			lowered = append(lowered, resolvedEdge{u: int(c.U), v: int(c.V), w: c.Weight})
		default:
			// unchanged weight: nothing to do
		}
	}
	return lowered, reset
}
