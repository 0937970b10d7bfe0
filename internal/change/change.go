// Package change defines the dynamic-graph change descriptors exchanged
// between workload generators and the anytime-anywhere engine: batches of
// vertex additions (the paper's focus) and the edge addition/deletion and
// vertex deletion operations the methodology composes with.
package change

import (
	"fmt"
	"math"

	"anytime/internal/graph"
)

// InternalEdge is an edge between two new vertices of the same batch,
// addressed by batch-local indices in [0, NumVertices).
type InternalEdge struct {
	A, B   int32 // batch-local indices
	Weight graph.Weight
}

// ExternalEdge connects a new vertex (batch-local index) to an existing
// vertex of the graph (global ID).
type ExternalEdge struct {
	New      int32 // batch-local index of the new vertex
	Existing int32 // global ID of the existing endpoint
	Weight   graph.Weight
}

// PendingEdge connects a new vertex of this batch to a vertex that was
// added by an *earlier batch of the same stream*, identified by its
// stream-local index (its batch-local index in the original, unsplit
// batch). The engine resolves the index through the stream's
// local->global map when the batch is applied.
type PendingEdge struct {
	New                int32 // batch-local index in this batch
	EarlierBatchVertex int32 // stream-local index of the earlier new vertex
	Weight             graph.Weight
}

// VertexBatch is one dynamic vertex-addition event: a set of new vertices
// together with the edges among them and the edges tying them to the
// existing graph. Global IDs for the new vertices are assigned by the
// engine at application time (existing N .. N+NumVertices-1, in batch-local
// order).
type VertexBatch struct {
	NumVertices int
	Internal    []InternalEdge
	External    []ExternalEdge
	Pending     []PendingEdge // cross-batch edges within a split stream
}

// NumEdges returns the total number of edges the batch introduces.
func (b *VertexBatch) NumEdges() int {
	return len(b.Internal) + len(b.External) + len(b.Pending)
}

// Validate checks index ranges against the batch size and an existing graph
// of n vertices, and that the grown graph's vertex IDs still fit in int32.
func (b *VertexBatch) Validate(n int) error {
	if b.NumVertices < 0 {
		return fmt.Errorf("change: negative batch size %d", b.NumVertices)
	}
	if b.NumVertices > math.MaxInt32-n {
		return fmt.Errorf("change: batch of %d vertices overflows the int32 vertex IDs of a graph of %d", b.NumVertices, n)
	}
	for _, e := range b.Internal {
		if e.A < 0 || int(e.A) >= b.NumVertices || e.B < 0 || int(e.B) >= b.NumVertices {
			return fmt.Errorf("change: internal edge {%d,%d} outside batch of %d", e.A, e.B, b.NumVertices)
		}
		if e.A == e.B {
			return fmt.Errorf("change: internal self-loop on %d", e.A)
		}
		if e.Weight <= 0 {
			return fmt.Errorf("change: non-positive weight on internal edge {%d,%d}", e.A, e.B)
		}
	}
	for _, e := range b.External {
		if e.New < 0 || int(e.New) >= b.NumVertices {
			return fmt.Errorf("change: external edge new-index %d outside batch of %d", e.New, b.NumVertices)
		}
		if e.Existing < 0 || int(e.Existing) >= n {
			return fmt.Errorf("change: external edge existing-vertex %d outside graph of %d", e.Existing, n)
		}
		if e.Weight <= 0 {
			return fmt.Errorf("change: non-positive weight on external edge {%d,%d}", e.New, e.Existing)
		}
	}
	for _, e := range b.Pending {
		if e.New < 0 || int(e.New) >= b.NumVertices {
			return fmt.Errorf("change: pending edge new-index %d outside batch of %d", e.New, b.NumVertices)
		}
		if e.EarlierBatchVertex < 0 {
			return fmt.Errorf("change: pending edge has negative stream index %d", e.EarlierBatchVertex)
		}
		if e.Weight <= 0 {
			return fmt.Errorf("change: non-positive weight on pending edge {%d,stream %d}", e.New, e.EarlierBatchVertex)
		}
	}
	return nil
}

// BatchGraph builds the graph induced by the batch's new vertices and
// internal edges only (batch-local IDs). This is the graph CutEdge-PS
// partitions.
func (b *VertexBatch) BatchGraph() *graph.Graph {
	g := graph.New(b.NumVertices)
	for _, e := range b.Internal {
		if !g.HasEdge(int(e.A), int(e.B)) {
			g.MustAddEdge(int(e.A), int(e.B), e.Weight)
		}
	}
	return g
}

// EdgeAdd is a dynamic edge addition between two existing vertices.
type EdgeAdd struct {
	U, V   int32
	Weight graph.Weight
}

// EdgeDel is a dynamic edge deletion.
type EdgeDel struct {
	U, V int32
}

// EdgeWeight is a dynamic edge-weight change (the change kind of the
// methodology's earliest companion work). Weight decreases are absorbed
// incrementally like edge additions; increases invalidate the upper-bound
// invariant and trigger the same IA-reset path as deletions.
type EdgeWeight struct {
	U, V   int32
	Weight graph.Weight // the new weight
}

// VertexDel is a dynamic vertex deletion (the paper's stated future work;
// implemented here as an extension). All incident edges are removed; the
// vertex ID remains allocated but isolated and is excluded from centrality.
type VertexDel struct {
	V int32
}

// Rebalance requests an explicit load-rebalancing pass: the current
// assignment is refined (migrating partial results) without any topology
// change — the paper's stated future work on rebalancing after deletions
// skew the partitions.
type Rebalance struct{}

// Event is a tagged union of the dynamic change kinds, applied in order at
// a recombination step.
type Event struct {
	Batch         *VertexBatch
	EdgeAdds      []EdgeAdd
	EdgeDels      []EdgeDel
	WeightChanges []EdgeWeight
	VertexDel     *VertexDel
	Rebalance     *Rebalance
}
