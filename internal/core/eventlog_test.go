package core

import (
	"math"
	"testing"

	"anytime/internal/change"
	"anytime/internal/graph"
)

// A vertex batch whose new IDs would not fit in int32 — one CRC-valid event
// frame can carry any u32 count — is refused before the graph, the
// partition or the journal grows.
func TestEventLogRejectsOverflowingBatch(t *testing.T) {
	for _, count := range []int{math.MaxInt32, 1<<32 - 1} {
		g := graph.New(10)
		part := graph.NewPartition(10, 2)
		l := NewEventLog(2)
		err := l.Replay(g, part, []change.Event{{Batch: &change.VertexBatch{NumVertices: count}}})
		if err == nil {
			t.Fatalf("batch of %d vertices accepted", count)
		}
		if g.NumVertices() != 10 || len(part.Part) != 10 || len(l.Journal()) != 0 {
			t.Fatalf("batch of %d vertices: graph %d vertices, partition %d, journal %d after the error", count, g.NumVertices(), len(part.Part), len(l.Journal()))
		}
	}
}
