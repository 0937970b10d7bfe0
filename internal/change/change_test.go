package change

import (
	"math"
	"testing"
)

func validBatch() *VertexBatch {
	return &VertexBatch{
		NumVertices: 3,
		Internal:    []InternalEdge{{A: 0, B: 1, Weight: 2}},
		External:    []ExternalEdge{{New: 2, Existing: 5, Weight: 1}},
		Pending:     []PendingEdge{{New: 1, EarlierBatchVertex: 0, Weight: 3}},
	}
}

func TestValidateOK(t *testing.T) {
	if err := validBatch().Validate(10); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []func(*VertexBatch){
		func(b *VertexBatch) { b.NumVertices = -1 },
		func(b *VertexBatch) { b.Internal[0].A = 5 },
		func(b *VertexBatch) { b.Internal[0].B = -1 },
		func(b *VertexBatch) { b.Internal[0].B = b.Internal[0].A },
		func(b *VertexBatch) { b.Internal[0].Weight = 0 },
		func(b *VertexBatch) { b.External[0].New = 3 },
		func(b *VertexBatch) { b.External[0].Existing = 10 },
		func(b *VertexBatch) { b.External[0].Existing = -1 },
		func(b *VertexBatch) { b.External[0].Weight = -1 },
		func(b *VertexBatch) { b.Pending[0].New = 9 },
		func(b *VertexBatch) { b.Pending[0].EarlierBatchVertex = -1 },
		func(b *VertexBatch) { b.Pending[0].Weight = 0 },
		func(b *VertexBatch) { b.NumVertices = math.MaxInt32 },
		func(b *VertexBatch) { b.NumVertices = 1<<32 - 1 },
	}
	for i, mutate := range cases {
		b := validBatch()
		mutate(b)
		if err := b.Validate(10); err == nil {
			t.Errorf("case %d: expected validation failure", i)
		}
	}
}

func TestNumEdges(t *testing.T) {
	if n := validBatch().NumEdges(); n != 3 {
		t.Fatalf("NumEdges = %d", n)
	}
}

func TestBatchGraph(t *testing.T) {
	b := validBatch()
	b.Internal = append(b.Internal, InternalEdge{A: 0, B: 1, Weight: 9}) // duplicate, skipped
	g := b.BatchGraph()
	if g.NumVertices() != 3 || g.NumEdges() != 1 {
		t.Fatalf("batch graph %d/%d", g.NumVertices(), g.NumEdges())
	}
	w, ok := g.EdgeWeight(0, 1)
	if !ok || w != 2 {
		t.Fatalf("weight = %d (first writer wins)", w)
	}
}
