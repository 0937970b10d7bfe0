package core

import (
	"sort"

	"anytime/internal/change"
	"anytime/internal/dv"
	"anytime/internal/graph"
	"anytime/internal/partition"
	"anytime/internal/transport"
)

// applyRepartition is Repartition-S: for large batches, instead of the
// immediate per-edge DV updates, the whole grown graph is repartitioned
// with the cut-optimizing partitioner. Existing partial results are NOT
// discarded — rows are migrated to their new owners (the anytime reuse) —
// but they are also not updated against the new vertices; the following RC
// steps absorb the new information, at the cost of extra steps.
//
// Part labels of the new partition are matched to the old ones by maximum
// overlap, so only genuinely relocated vertices migrate. After migration,
// the rows marked dirty (and therefore re-shipped) are exactly the ones
// whose information flow the repartition disturbed:
//
//   - rows of new vertices (fresh information),
//   - rows whose direct-edge re-seed changed them (adjacent to new edges),
//   - migrated rows (their new processor's neighbors never saw them), and
//   - rows of neighbors of migrated or new vertices (the migrated/new rows
//     must re-receive them).
//
// Everything else was already propagated under the old assignment and
// remains valid; the dirty cascade plus the forced local refinement close
// the remaining compositions (see Engine.forceRefine).
func (e *Engine) applyRepartition(b *change.VertexBatch) {
	e.exact = false // migrated rows and new vertices are re-seeded, not updated
	cutBefore := graph.EdgeCut(e.g, e.part)
	oldPart := e.part.Part // still sized for the old vertex set

	// 1. Grow the topology: vertices and edges only — no placement (the
	// repartition below decides it) and no DV updates.
	res, err := e.log.apply(e.g, nil, change.Event{Batch: b}, nil, e.alive)
	if err != nil {
		e.fail(err)
		return
	}
	first := res.first
	e.growAlive(res.count)
	e.metrics.EdgesAdded += len(res.edges)
	e.metrics.VerticesAdded += b.NumVertices

	// 2. Repartition the entire graph. The default is adaptive
	// repartitioning (the ParMETIS-adaptive analogue): seed the new
	// vertices by neighbor affinity and refine the old assignment, so only
	// genuinely relocated vertices migrate. With FullRepartition the DD
	// partitioner runs from scratch and the part labels are matched to the
	// old assignment by maximum overlap.
	var newPart *graph.Partition
	var rerr error
	if e.opts.FullRepartition {
		newPart, rerr = e.opts.Partitioner.Partition(e.g, e.opts.P)
		if rerr == nil && newPart.Validate(e.g) == nil {
			matchPartLabels(oldPart, newPart)
		}
	} else {
		seed := partition.AffinityExtend(e.g, append([]int32(nil), oldPart...), e.opts.P, first)
		newPart, rerr = partition.Adaptive{Seed: e.opts.Seed}.Refine(e.g, seed, e.opts.P)
	}
	if rerr != nil || newPart.Validate(e.g) != nil {
		// Partitioning failure would leave the engine stateless; fall back
		// to keeping the old assignment and placing new vertices round
		// robin, which is always valid.
		newPart = &graph.Partition{Part: append(append([]int32(nil), oldPart...),
			e.log.roundRobin(b)...), K: e.opts.P}
	}
	ops := partitionOps(e.g.NumVertices(), e.g.NumEdges())
	e.metrics.ChangeOps += ops
	e.chargeAll(ops / int64(e.opts.P)) // parallel repartitioner
	e.metrics.Repartitions++

	// 3. Widen every table for the new columns, then migrate rows of
	// existing vertices whose owner changed, through the communication
	// schedule (partial-result redistribution).
	for _, p := range e.procs {
		p.table.ExtendCols(b.NumVertices)
	}
	rowBytes := 4*e.g.NumVertices() + 8
	outbox := make([][]transport.Message, e.opts.P)
	migrated := make([]bool, e.g.NumVertices())
	migCount := 0
	for v := 0; v < first; v++ {
		from, to := oldPart[v], newPart.Part[v]
		if from == to {
			continue
		}
		r := e.procs[from].table.RemoveRow(int32(v))
		if r == nil {
			continue // deleted vertex
		}
		migrated[v] = true
		migCount++
		outbox[from] = append(outbox[from], transport.Message{
			To:      int(to),
			Tag:     transport.TagMigrateRows,
			Bytes:   rowBytes,
			Payload: r,
		})
	}
	inbox, xerr := e.mach.Exchange(outbox)
	if xerr != nil {
		e.fail(xerr)
		return
	}
	for pid, msgs := range inbox {
		for _, msg := range msgs {
			switch msg.Tag {
			case transport.TagMigrateRows:
				row, err := msg.Row()
				if err != nil {
					e.fail(err)
					continue
				}
				e.procs[pid].table.AdoptRow(row)
			case transport.TagBoundaryDV:
				// A boundary delta delayed by the lossy network releases at
				// the next exchange — which can be this migration exchange.
				// Treat it as a failed delivery: re-mark the sender's rows
				// for a full re-ship (migrated rows are marked ship-all
				// below regardless).
				deltas, err := msg.Deltas()
				if err != nil {
					e.fail(err)
					continue
				}
				e.procs[msg.From].ReMarkFailed(deltas)
			}
		}
	}
	e.metrics.RowsMigrated += migCount

	// 4. Install the new partition (each processor's unit takes it in 5).
	e.part = newPart

	// nearDisturbed[v]: v neighbors a migrated or new vertex, so v's row
	// must be re-shipped for the disturbed rows to re-receive it.
	nearDisturbed := make([]bool, e.g.NumVertices())
	markNeighbors := func(v int) {
		for _, a := range e.g.Neighbors(v) {
			nearDisturbed[a.To] = true
		}
	}
	for v := 0; v < first; v++ {
		if migrated[v] {
			markNeighbors(v)
		}
	}
	for v := first; v < e.g.NumVertices(); v++ {
		markNeighbors(v)
	}

	// 5. New vertices get fresh rows seeded by local Dijkstra (the IA
	// algorithm applied to just the new rows); existing rows are re-seeded
	// with their direct edges so the new topology enters the relaxation
	// closure; the disturbed rows become dirty.
	e.mach.Parallel(func(pid int) {
		p := e.procs[pid]
		p.part = newPart
		p.findCut()
		var newRows []*dv.Row
		for v := first; v < len(newPart.Part); v++ {
			if int(newPart.Part[v]) == pid {
				newRows = append(newRows, p.table.AddRow(int32(v)))
			}
		}
		ops := p.IA(newRows, false, e.unitWeight, e.opts.Workers)
		ops += p.ReseedDirectEdges() // marks dirty on improvement
		for _, r := range p.table.Rows() {
			if migrated[r.Owner] || nearDisturbed[r.Owner] {
				// Full ship: the receiving side may never have seen any
				// version of a migrated or disturbance-adjacent row.
				r.MarkShipAll()
			}
		}
		e.mach.Charge(pid, ops/int64(e.opts.Workers))
		addOps(&e.metrics.ChangeOps, ops)
	})
	e.mach.Barrier()

	e.metrics.NewCutEdges += graph.EdgeCut(e.g, e.part) - cutBefore
	e.forceRefine = true
	e.converged = false
}

// matchPartLabels permutes newPart's labels to maximize vertex overlap
// with oldPart (greedy maximum matching on the overlap counts), so that
// repartitioning migrates only genuinely relocated vertices rather than
// arbitrarily relabeled ones.
func matchPartLabels(oldPart []int32, newPart *graph.Partition) {
	k := newPart.K
	overlap := make([][]int64, k) // overlap[new][old]
	for i := range overlap {
		overlap[i] = make([]int64, k)
	}
	for v, op := range oldPart {
		overlap[newPart.Part[v]][op]++
	}
	type cand struct {
		newL, oldL int
		count      int64
	}
	cands := make([]cand, 0, k*k)
	for nl := 0; nl < k; nl++ {
		for ol := 0; ol < k; ol++ {
			if overlap[nl][ol] > 0 {
				cands = append(cands, cand{nl, ol, overlap[nl][ol]})
			}
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].count != cands[b].count {
			return cands[a].count > cands[b].count
		}
		if cands[a].newL != cands[b].newL {
			return cands[a].newL < cands[b].newL
		}
		return cands[a].oldL < cands[b].oldL
	})
	perm := make([]int32, k)
	for i := range perm {
		perm[i] = -1
	}
	usedOld := make([]bool, k)
	for _, c := range cands {
		if perm[c.newL] != -1 || usedOld[c.oldL] {
			continue
		}
		perm[c.newL] = int32(c.oldL)
		usedOld[c.oldL] = true
	}
	next := 0
	for nl := range perm {
		if perm[nl] != -1 {
			continue
		}
		for usedOld[next] {
			next++
		}
		perm[nl] = int32(next)
		usedOld[next] = true
	}
	for v := range newPart.Part {
		newPart.Part[v] = perm[newPart.Part[v]]
	}
}
