package core

import (
	"sort"

	"anytime/internal/change"
	"anytime/internal/partition"
)

// applyBatch incorporates one dynamic vertex-addition batch using the
// configured processor-assignment strategy (the paper's Fig. 2/3
// recombination strategy: read changes → processor placement → vertex
// addition). Under the immediate-update strategies it returns the batch's
// edges for absorbEdges: each broadcasts its endpoint rows and relaxes
// every processor's local rows against them (the anytime anywhere
// edge-addition algorithm the vertex addition builds on).
func (e *Engine) applyBatch(b *change.VertexBatch) []resolvedEdge {
	strat := e.opts.Strategy
	if strat == AutoPS {
		// the paper's Fig. 5/6 insight as a policy: incremental updates for
		// small batches, repartition-with-result-reuse for large ones
		if float64(b.NumVertices) >= autoThreshold*float64(e.g.NumVertices()) {
			strat = RepartitionS
		} else {
			strat = CutEdgePS
		}
	}
	if strat == RepartitionS {
		e.applyRepartition(b)
		return nil
	}
	place := e.assignRoundRobin
	if strat == CutEdgePS {
		place = e.assignCutEdge
	}
	res, err := e.log.apply(e.g, e.part, change.Event{Batch: b}, place, e.alive)
	if err != nil {
		e.fail(err)
		return nil
	}
	// Every table widens by the new columns; owner processors create rows
	// for their new vertices (D[v]=0, rest ∞).
	e.growAlive(res.count)
	for _, p := range e.procs {
		p.grow(res.first, res.count)
	}
	e.metrics.VerticesAdded += b.NumVertices
	return res.edges
}

// growAlive marks count freshly added vertices alive.
func (e *Engine) growAlive(count int) {
	for i := 0; i < count; i++ {
		e.alive = append(e.alive, true)
	}
}

// assignRoundRobin is RoundRobin-PS (the log's cursor): O(k) work, no
// communication.
func (e *Engine) assignRoundRobin(b *change.VertexBatch) []int32 {
	assign := e.log.roundRobin(b)
	e.metrics.ChangeOps += int64(b.NumVertices)
	e.chargeAll(int64(b.NumVertices) / int64(e.opts.P))
	return assign
}

// assignCutEdge is CutEdge-PS: the new vertices and the edges among them
// form an independent graph that is partitioned with the serial
// cut-optimizing partitioner (the METIS stand-in); the resulting parts are
// then mapped onto distinct processors to maximize affinity with the
// existing endpoints of the batch's external edges (minimizing the new cut
// edges), with processor load as the tie-breaker.
func (e *Engine) assignCutEdge(b *change.VertexBatch) []int32 {
	P := e.opts.P
	bg := b.BatchGraph()
	k := P
	if k > bg.NumVertices() {
		k = bg.NumVertices()
	}
	part, err := partition.Multilevel{Seed: e.opts.Seed + 1}.Partition(bg, k)
	if err != nil {
		// degenerate batch: fall back to round robin
		return e.assignRoundRobin(b)
	}
	// In the paper every processor computes the batch partition redundantly
	// and the best one is kept, so each processor is charged the full
	// serial partitioning cost.
	ops := partitionOps(bg.NumVertices(), bg.NumEdges())
	e.metrics.ChangeOps += ops
	e.chargeAll(ops)

	// affinity[j][p]: external+pending edges from part j into processor p
	aff := make([][]int64, k)
	for j := range aff {
		aff[j] = make([]int64, P)
	}
	for _, ed := range b.External {
		aff[part.Part[ed.New]][e.part.Part[ed.Existing]]++
	}
	for _, ed := range b.Pending {
		aff[part.Part[ed.New]][e.part.Part[e.log.streamMap[ed.EarlierBatchVertex]]]++
	}
	var procOf []int32
	if e.opts.NaiveBatchMapping {
		procOf = make([]int32, k)
		for j := range procOf {
			procOf[j] = int32(j % P)
		}
	} else {
		procOf = e.mapPartsToProcs(aff)
	}

	assign := make([]int32, b.NumVertices)
	for i := range assign {
		assign[i] = procOf[part.Part[i]]
	}
	return assign
}

// mapPartsToProcs greedily matches batch parts to distinct processors in
// decreasing affinity order; leftovers go to the least-loaded processors.
func (e *Engine) mapPartsToProcs(aff [][]int64) []int32 {
	P := e.opts.P
	k := len(aff)
	type cand struct {
		part, proc int
		score      int64
	}
	var cands []cand
	for j := 0; j < k; j++ {
		for p := 0; p < P; p++ {
			if aff[j][p] > 0 {
				cands = append(cands, cand{j, p, aff[j][p]})
			}
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score > cands[b].score
		}
		if cands[a].part != cands[b].part {
			return cands[a].part < cands[b].part
		}
		return cands[a].proc < cands[b].proc
	})
	procOf := make([]int32, k)
	for j := range procOf {
		procOf[j] = -1
	}
	usedProc := make([]bool, P)
	for _, c := range cands {
		if procOf[c.part] != -1 || usedProc[c.proc] {
			continue
		}
		procOf[c.part] = int32(c.proc)
		usedProc[c.proc] = true
	}
	// parts with no (remaining) affinity: least-loaded unused processor
	// first, then least-loaded overall
	load := e.part.Sizes()
	for j := range procOf {
		if procOf[j] != -1 {
			continue
		}
		best, bestLoad, bestUnused := -1, 0, false
		for p := 0; p < P; p++ {
			unused := !usedProc[p]
			if best == -1 || (unused && !bestUnused) ||
				(unused == bestUnused && load[p] < bestLoad) {
				best, bestLoad, bestUnused = p, load[p], unused
			}
		}
		procOf[j] = int32(best)
		usedProc[best] = true
	}
	return procOf
}
