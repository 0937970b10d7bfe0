package serve

import (
	"testing"

	"anytime/internal/change"
	"anytime/internal/core"
	"anytime/internal/gen"
)

func benchServer(b *testing.B, n int) *Server {
	b.Helper()
	g, err := gen.BarabasiAlbert(n, 2, gen.Weights{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	gen.Connectify(g, 1)
	opts := core.NewOptions()
	opts.P = 4
	e, err := core.New(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	e.Run()
	// no driver: publication and the read path benched in isolation
	s, err := newServer(e, Config{TopKIndex: 64})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSnapshotPublish pins the cost of one publication: gathering the
// engine snapshot, building the top-k index, and the atomic swap. This is
// the driver-side overhead added per PublishEvery RC steps; later PRs must
// not regress it silently. Between publishes an untimed edge addition and
// one RC step dirty the engine, as the driver's steps do, so the snapshot
// rescans what that step wrote instead of re-reading clean row caches.
func BenchmarkSnapshotPublish(b *testing.B) {
	s := benchServer(b, 1000)
	e := s.eng
	e.SetStepHook(nil) // the timed publish is the only one
	n := e.Graph().NumVertices()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		u := i * 7919 % n
		v := (u + 1 + i*31%(n-1)) % n
		for e.Graph().HasEdge(u, v) || u == v {
			v = (v + 1) % n
		}
		if err := e.QueueEdgeAdds(change.EdgeAdd{U: int32(u), V: int32(v), Weight: 1}); err != nil {
			b.Fatal(err)
		}
		e.Step()
		b.StartTimer()
		s.publish()
	}
}

// BenchmarkTopKQuery pins the read path: atomic view load plus top-k index
// lookup, the per-query cost every HTTP top-k request pays.
func BenchmarkTopKQuery(b *testing.B) {
	s := benchServer(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var sink int
		for pb.Next() {
			top := s.View().TopK(10)
			sink += top[0]
		}
		_ = sink
	})
}

// BenchmarkTopKQueryBeyondIndex pins the fallback path: a query wider than
// the precomputed index heap-selects over the immutable snapshot.
func BenchmarkTopKQueryBeyondIndex(b *testing.B) {
	s := benchServer(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var sink int
		for pb.Next() {
			top := s.View().TopK(200)
			sink += top[0]
		}
		_ = sink
	})
}
