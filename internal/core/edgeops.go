package core

import (
	"anytime/internal/change"
	"anytime/internal/cluster"
	"anytime/internal/dv"
	"anytime/internal/graph"
	"anytime/internal/kernel"
)

// applyEdgeAdds incorporates an edge-addition event: the log resolves it
// against the graph (new edges inserted, lighter duplicates lowered, heavier
// ones dropped) and every edge that changed the graph is absorbed.
func (e *Engine) applyEdgeAdds(ev change.Event) {
	res, err := e.log.apply(e.g, e.part, ev, nil)
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
func (e *Engine) absorbEdge(u, v int, w graph.Weight, dynamicCut bool) {
	e.metrics.EdgesAdded++
	if dynamicCut && e.part.Part[u] != e.part.Part[v] {
		e.metrics.NewCutEdges++
	}
	ownerU := int(e.part.Part[u])
	ownerV := int(e.part.Part[v])
	rowU := e.procs[ownerU].table.Row(int32(u))
	rowV := e.procs[ownerV].table.Row(int32(v))
	if rowU == nil || rowV == nil {
		// deleted endpoint: topology recorded, DV reset handles the rest
		return
	}
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
	if _, err := e.mach.Broadcast(ownerU, cluster.Message{Tag: cluster.TagNewVertexRow, Bytes: bytes}); err != nil {
		e.fail(err)
		return
	}
	if _, err := e.mach.Broadcast(ownerV, cluster.Message{Tag: cluster.TagNewVertexRow, Bytes: bytes}); err != nil {
		e.fail(err)
		return
	}
	if !improves {
		return
	}
	ui, vi := int32(u), int32(v)
	e.mach.Parallel(func(pid int) {
		p := e.procs[pid]
		var ops int64
		for _, x := range p.table.Rows() {
			ops += relaxViaEdge(x, ui, vi, w, snapU.D, snapV.D)
		}
		e.mach.Charge(pid, ops)
		addOps(&e.metrics.ChangeOps, ops)
	})
	e.mach.Barrier()
}

// relaxViaEdge performs the Fig. 3 lines 27-33 scan for one local row x
// against a new edge {u,v,w}: every target t is tested against the two
// compositions through the edge,
//
//	D(x,t) = min(D(x,t), D(x,u)+w+D_v(t), D(x,v)+w+D_u(t)),
//
// using the broadcast snapshots of the endpoint rows. The full scan (not a
// pruned one) is the paper's immediate-update cost — the very overhead
// that makes Repartition-S preferable for large batches. Returns the
// operation count.
func relaxViaEdge(x *dv.Row, u, v int32, w graph.Weight, du, dvv []graph.Dist) int64 {
	xu := graph.AddDist(x.D[u], w) // prefix x → u → v
	xv := graph.AddDist(x.D[v], w) // prefix x → v → u
	if xu == graph.InfDist && xv == graph.InfDist {
		return 2
	}
	// first hops of the two prefixes (the new edge itself when x is an
	// endpoint)
	nhu := v
	if x.Owner != u {
		nhu = x.NH[u]
	}
	nhv := u
	if x.Owner != v {
		nhv = x.NH[v]
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
	xD, xNH := x.D[:n], x.NH[:n]
	// Two kernel passes over the two compositions. Equivalent to the fused
	// per-target min: every applied update is a strict decrease, and the
	// second pass compares against the first pass's result. Improvements
	// land in x's frontier so later masked sweeps see them.
	if xu != graph.InfDist {
		if lo, hi := kernel.MinPlusHopsRec(xD, xNH, dvv[:n], xu, nhu, x.F, 0); lo < hi {
			x.MarkChanged(lo, hi)
		}
	}
	if xv != graph.InfDist {
		if lo, hi := kernel.MinPlusHopsRec(xD, xNH, du[:n], xv, nhv, x.F, 0); lo < hi {
			x.MarkChanged(lo, hi)
		}
	}
	return 2 * int64(n)
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
			if _, err := addOrLowerEdge(e.g, int(c.U), int(c.V), c.Weight); err != nil {
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
