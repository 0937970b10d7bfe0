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
// ones dropped) and every edge that changed the graph is absorbed.
func (e *Engine) applyEdgeAdds(ev change.Event) {
	res, err := e.log.apply(e.g, e.part, ev, nil, e.alive)
	if err != nil {
		e.fail(err)
		return
	}
	for _, ed := range res.edges {
		e.absorbEdge(ed.u, ed.v, ed.w, true)
	}
	e.afterTopologyChange()
}

// absorbEdge updates the DV state for an edge {u,v,w} that just entered the
// graph or had its weight lowered to w (Fig. 3 lines 19-44): the rows of
// both endpoints are tree-broadcast, and — if the edge actually shortens
// the u-v distance — every processor relaxes its local rows through the new
// edge in both directions:
//
//	D(x,t) = min(D(x,t), D(x,u)+w+D_v(t), D(x,v)+w+D_u(t))
//
// dynamicCut, when true, counts a created cut edge into the metrics.
//
// Both endpoints are live: no edge to a deleted vertex enters the graph
// (admission refuses it, EventLog.apply and applyWeightChanges drop it).
//
// On an exact APSP matrix the update leaves an exact APSP matrix of the
// grown graph: a shortest path uses the new edge at most once, and the two
// compositions above are exactly the paths that do. So the Engine's exact
// bit (DESIGN.md, "Exact-state steps") survives an absorbEdge.
func (e *Engine) absorbEdge(u, v int, w graph.Weight, dynamicCut bool) {
	e.metrics.EdgesAdded++
	if dynamicCut && e.part.Part[u] != e.part.Part[v] {
		e.metrics.NewCutEdges++
	}
	ownerU := int(e.part.Part[u])
	ownerV := int(e.part.Part[v])
	rowU := e.procs[ownerU].table.Row(int32(u))
	rowV := e.procs[ownerV].table.Row(int32(v))
	// The edge's endpoints are the only vertices whose part-adjacency the
	// new edge can change: each may now border a part that has never seen
	// any version of its row, so their next ship carries the full row.
	// Every other row keeps its delta window (its receivers are unchanged).
	// The frontier survives: every endpoint-row change below goes through a
	// recorded relax scan, so the change extent stays exactly tracked and
	// receivers can still mask their sweeps.
	rowU.MarkShipFull()
	rowV.MarkShipFull()
	// Fig. 3 line 26: only edges that improve the endpoint distance
	// trigger the update pass.
	improves := graph.AddDist(rowU.D[int32(v)], 0) > w
	snapU := dv.CopyRow(rowU)
	snapV := dv.CopyRow(rowV)
	bytes := 4*e.g.NumVertices() + 8
	if _, err := e.mach.Broadcast(ownerU, transport.Message{Tag: transport.TagNewVertexRow, Bytes: bytes}); err != nil {
		e.fail(err)
		return
	}
	if _, err := e.mach.Broadcast(ownerV, transport.Message{Tag: transport.TagNewVertexRow, Bytes: bytes}); err != nil {
		e.fail(err)
		return
	}
	if !improves {
		return
	}
	// The event started from a clean convergence (Step computed the flag
	// just before applying it, and every edge absorbed since was a Fig. 3
	// update), so the DV state is an exact APSP matrix and the scan may be
	// pruned to the affected rows and targets.
	var tg *edgeTargets
	if e.converged {
		e.edgeTargets.build(w, snapU.D, snapV.D)
		tg = &e.edgeTargets
	}
	ui, vi := int32(u), int32(v)
	e.mach.Parallel(func(pid int) {
		p := e.procs[pid]
		var ops int64
		for _, x := range p.table.Rows() {
			ops += relaxViaEdge(x, ui, vi, w, snapU.D, snapV.D, tg)
		}
		e.mach.Charge(pid, ops)
		addOps(&e.metrics.ChangeOps, ops)
	})
	e.mach.Barrier()
}

// edgeTargets are the two target lists of a pruned Fig. 3 scan for an edge
// {u,v,w}, compiled from the endpoint snapshots: viaU holds the targets t
// with w + D(v,t) < D(u,t), the only columns the prefix x → u → v can
// improve, and viaV the mirror image. The Engine keeps one as scratch.
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

// afterTopologyChange rebuilds the per-processor boundary structures from
// the mutated graph. The rows the change disturbed are already marked for
// shipping at the mutation sites: absorbEdge marks the edge endpoints
// ship-all (the only rows whose receiver set a new edge can extend) and
// window-marks every row the relax pass improved; deletion paths rebuild
// the tables outright (every fresh row ships in full).
func (e *Engine) afterTopologyChange() {
	e.rebuildSubs()
	e.converged = false
}

// rebuildSubs re-extracts every processor's sub-graph structure (local,
// boundary, and local-boundary sets) after a topology or partition change.
func (e *Engine) rebuildSubs() {
	e.mach.Parallel(func(pid int) {
		e.procs[pid].rebuild(e.part)
	})
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
	owner := e.procs[e.part.Part[v]]
	owner.table.RemoveRow(v)
	e.resetDVs()
}

// resetDVs drops all distance state and recomputes the IA phase over the
// current topology, reusing the existing partition (anytime reuse of the
// DD phase). All boundary rows become dirty, so the following RC steps
// rebuild the global solution.
func (e *Engine) resetDVs() {
	e.rebuildSubs()
	e.mach.Parallel(func(pid int) {
		e.procs[pid].resetTable(e.alive)
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
// behaves exactly like an edge addition with a better weight: the
// incremental immediate-update scan applies and RC steps re-converge. An
// increase (or a change to a non-existent edge) breaks the monotone
// upper-bound invariant, so — like deletions — the engine reuses the
// partition but recomputes the IA phase.
func (e *Engine) applyWeightChanges(chs []change.EdgeWeight) {
	needReset := false
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
			needReset = true
		case c.Weight < old:
			if _, err := e.g.AddOrLowerEdge(int(c.U), int(c.V), c.Weight); err != nil {
				panic(err)
			}
			e.absorbEdge(int(c.U), int(c.V), c.Weight, false)
		default:
			// unchanged weight: nothing to do
		}
	}
	if needReset {
		e.resetDVs()
		return
	}
	e.afterTopologyChange()
}
