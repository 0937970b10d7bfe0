package core

import (
	"fmt"

	"anytime/internal/change"
	"anytime/internal/graph"
)

// EventLog is the one event resolver under every runtime: it turns a
// vertex batch or an edge-addition event into global vertex IDs, a
// placement and an inserted edge list, and owns the deterministic state
// that takes — the round-robin placement cursor, the stream map resolving
// cross-batch Pending edges, and (Runner side) the journal of applied
// events. The Engine, the Restart baseline and every rank.Runner embed one.
//
// Across processes rank 0 owns the event intake and ships each step's
// accepted events to every live rank inside the data exchange; every rank
// then applies the identical event list at the identical step boundary, so
// the graphs, partitions and placement cursors evolve in lockstep without
// any extra coordination. A rank that was down while events were applied
// replays the journal from the base graph when it rejoins,
// deterministically re-deriving the exact topology and partition the
// survivors hold (verified by the partition checksum in the rejoin-go
// payload).
type EventLog struct {
	p         int
	rrNext    int     // RoundRobin-PS cursor
	streamMap []int32 // stream-local new-vertex index -> global ID
	journal   []change.Event
}

// NewEventLog creates the event state for P processors.
func NewEventLog(p int) *EventLog { return &EventLog{p: p} }

// Journal returns the events applied through Proc.ApplyEvents and Replay,
// in application order.
func (l *EventLog) Journal() []change.Event { return l.journal }

// placement assigns a processor to each new vertex of a batch. The Engine
// plugs CutEdge-PS in here; roundRobin is the log's own.
type placement func(b *change.VertexBatch) []int32

// roundRobin is RoundRobin-PS: new vertices go to processors in a circular
// fashion, continuing from where the previous batch stopped.
func (l *EventLog) roundRobin(b *change.VertexBatch) []int32 {
	assign := make([]int32, b.NumVertices)
	for i := range assign {
		assign[i] = int32((l.rrNext + i) % l.p)
	}
	l.rrNext = (l.rrNext + b.NumVertices) % l.p
	return assign
}

type resolvedEdge struct {
	u, v int
	w    graph.Weight
}

// resolved reports what one event did to the graph, for the caller's
// table-level follow-up.
type resolved struct {
	first int            // first global ID of the batch's new vertices (batch only)
	count int            // new vertices added
	edges []resolvedEdge // edges inserted or lowered, in event order
}

// apply resolves one event against the graph: a batch's new vertices get
// the next dense global IDs, join the stream map and — when place is given
// — the partition; the event's edges resolve to global IDs (Pending ones
// through the stream map) and enter the graph. One duplicate rule holds
// everywhere: an edge that already exists keeps the better weight, so a
// lighter re-add lowers it and a heavier one is a no-op; exactly the edges
// that changed the graph are reported back. place == nil leaves the
// partition alone (the caller repartitions, or has none).
//
// Only vertex batches and edge additions resolve here; the non-monotone
// kinds (deletions, weight increases) need the Engine's reset path.
func (l *EventLog) apply(g *graph.Graph, part *graph.Partition, ev change.Event, place placement) (resolved, error) {
	var res resolved
	switch {
	case ev.Batch != nil:
		b := ev.Batch
		if err := b.Validate(g.NumVertices()); err != nil {
			return res, err
		}
		for _, ed := range b.Pending {
			if int(ed.EarlierBatchVertex) >= len(l.streamMap) {
				return res, fmt.Errorf("core: pending edge references stream vertex %d of %d", ed.EarlierBatchVertex, len(l.streamMap))
			}
		}
		if place != nil {
			part.Extend(place(b))
		}
		first := g.AddVertices(b.NumVertices)
		res = resolved{first: first, count: b.NumVertices, edges: make([]resolvedEdge, 0, b.NumEdges())}
		for _, ed := range b.Internal {
			res.edges = append(res.edges, resolvedEdge{first + int(ed.A), first + int(ed.B), ed.Weight})
		}
		for _, ed := range b.External {
			res.edges = append(res.edges, resolvedEdge{first + int(ed.New), int(ed.Existing), ed.Weight})
		}
		for _, ed := range b.Pending {
			res.edges = append(res.edges, resolvedEdge{first + int(ed.New), int(l.streamMap[ed.EarlierBatchVertex]), ed.Weight})
		}
		for i := 0; i < b.NumVertices; i++ {
			l.streamMap = append(l.streamMap, int32(first+i))
		}
	case ev.EdgeAdds != nil:
		n := g.NumVertices()
		for _, ed := range ev.EdgeAdds {
			if ed.U < 0 || int(ed.U) >= n || ed.V < 0 || int(ed.V) >= n || ed.U == ed.V || ed.Weight <= 0 {
				return res, fmt.Errorf("core: invalid edge addition {%d,%d,%d} on graph of %d", ed.U, ed.V, ed.Weight, n)
			}
			res.edges = append(res.edges, resolvedEdge{int(ed.U), int(ed.V), ed.Weight})
		}
	default:
		return res, fmt.Errorf("core: event kind not supported across processes (deletions/weight changes/rebalance are single-process)")
	}
	kept := res.edges[:0]
	for _, ed := range res.edges {
		changed, err := g.AddOrLowerEdge(ed.u, ed.v, ed.w)
		if err != nil {
			return res, err
		}
		if changed {
			kept = append(kept, ed)
		}
	}
	res.edges = kept
	return res, nil
}

// Replay re-derives the graph and partition evolution of a journal — the
// rejoin path: a returning rank applies the journal it missed to the base
// graph and provably arrives at the survivors' exact topology, because
// every mutation is a deterministic function of (base state, journal).
func (l *EventLog) Replay(g *graph.Graph, part *graph.Partition, journal []change.Event) error {
	for i, ev := range journal {
		if _, err := l.apply(g, part, ev, l.roundRobin); err != nil {
			return fmt.Errorf("core: journal replay event %d: %w", i, err)
		}
		l.journal = append(l.journal, ev)
	}
	return nil
}
