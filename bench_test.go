// Benchmarks of the analysis-bounds table, ablation benches for the design
// choices called out in DESIGN.md and micro-benches of the engine phases.
// The paper's figures (Figs. 4-8) are regenerated by internal/harness
// (cmd/aaexperiments), not here.
//
// Wall time is what testing.B measures; the ablation benches additionally
// report the simulated-cluster LogP time as "virt-ms/op" and the
// "new-cut-edges" a batch created.
//
// Run with: go test -bench=. -benchmem
package anytime_test

import (
	"testing"

	"anytime"
	"anytime/internal/change"
	"anytime/internal/core"
	"anytime/internal/gen"
	"anytime/internal/graph"
	"anytime/internal/partition"
)

const (
	benchN    = 400
	benchP    = 4
	benchSeed = 1
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.BarabasiAlbert(benchN, 3, gen.Weights{}, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	gen.Connectify(g, benchSeed)
	return g
}

func benchOptions(strat core.Strategy) core.Options {
	o := core.NewOptions()
	o.P = benchP
	o.Seed = benchSeed
	o.Strategy = strat
	o.Workers = 2
	return o
}

func benchBatch(b *testing.B, g *graph.Graph, k int) *change.VertexBatch {
	b.Helper()
	batch, err := gen.CommunityBatch(g, k, 1.5, gen.Weights{}, benchSeed+int64(k))
	if err != nil {
		b.Fatal(err)
	}
	return batch
}

// absorbBench measures absorbing one batch injected at the given RC step.
func absorbBench(b *testing.B, strat core.Strategy, injectStep, batchSize int, opts core.Options) {
	g := benchGraph(b)
	batch := benchBatch(b, g, batchSize)
	b.ReportAllocs()
	b.ResetTimer()
	var virt, cuts float64
	for i := 0; i < b.N; i++ {
		e, err := core.New(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < injectStep && e.Step(); s++ {
		}
		if err := e.QueueBatch(batch); err != nil {
			b.Fatal(err)
		}
		e.Run()
		if !e.Converged() {
			b.Fatal("did not converge")
		}
		m := e.Metrics()
		virt += m.VirtualTime.Seconds() * 1000
		cuts += float64(m.NewCutEdges)
	}
	b.ReportMetric(virt/float64(b.N), "virt-ms/op")
	b.ReportMetric(cuts/float64(b.N), "new-cut-edges")
}

// --- Analysis-bounds table: a full static run, reporting the measured
// counters the LogP analysis bounds ---

func BenchmarkAnalysisBounds(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	var ia, rc, bytes float64
	for i := 0; i < b.N; i++ {
		e, err := core.New(g, benchOptions(core.RoundRobinPS))
		if err != nil {
			b.Fatal(err)
		}
		e.Run()
		m := e.Metrics()
		ia += float64(m.IAOps)
		rc += float64(m.RCOps)
		bytes += float64(m.Comm.Bytes)
	}
	b.ReportMetric(ia/float64(b.N), "IA-ops")
	b.ReportMetric(rc/float64(b.N), "RC-ops")
	b.ReportMetric(bytes/float64(b.N), "RC-bytes")
}

// --- Ablation benches (DESIGN.md section 6) ---

func BenchmarkAblation_LocalRefineOn(b *testing.B) {
	absorbBench(b, core.RoundRobinPS, 0, 48, benchOptions(core.RoundRobinPS))
}

func BenchmarkAblation_LocalRefineOff(b *testing.B) {
	o := benchOptions(core.RoundRobinPS)
	o.NoLocalRefine = true
	absorbBench(b, core.RoundRobinPS, 0, 48, o)
}

func BenchmarkAblation_DirtyOnlyShipping(b *testing.B) {
	absorbBench(b, core.RoundRobinPS, 4, 48, benchOptions(core.RoundRobinPS))
}

func BenchmarkAblation_ShipAllBoundary(b *testing.B) {
	o := benchOptions(core.RoundRobinPS)
	o.ShipAllBoundary = true
	absorbBench(b, core.RoundRobinPS, 4, 48, o)
}

func BenchmarkAblation_SerializedComm(b *testing.B) {
	absorbBench(b, core.RoundRobinPS, 0, 48, benchOptions(core.RoundRobinPS))
}

func BenchmarkAblation_ParallelComm(b *testing.B) {
	o := benchOptions(core.RoundRobinPS)
	o.ParallelComm = true
	absorbBench(b, core.RoundRobinPS, 0, 48, o)
}

func BenchmarkAblation_MsgCap4K(b *testing.B) {
	o := benchOptions(core.RoundRobinPS)
	o.MaxMsgBytes = 4 << 10
	absorbBench(b, core.RoundRobinPS, 0, 48, o)
}

func BenchmarkAblation_MsgCap1M(b *testing.B) {
	o := benchOptions(core.RoundRobinPS)
	o.MaxMsgBytes = 1 << 20
	absorbBench(b, core.RoundRobinPS, 0, 48, o)
}

func BenchmarkAblation_DDMultilevel(b *testing.B) {
	absorbBench(b, core.RoundRobinPS, 0, 48, benchOptions(core.RoundRobinPS))
}

func BenchmarkAblation_DDGreedy(b *testing.B) {
	o := benchOptions(core.RoundRobinPS)
	o.Partitioner = partition.Greedy{Seed: benchSeed}
	absorbBench(b, core.RoundRobinPS, 0, 48, o)
}

func BenchmarkAblation_DDRoundRobin(b *testing.B) {
	o := benchOptions(core.RoundRobinPS)
	o.Partitioner = partition.RoundRobin{}
	absorbBench(b, core.RoundRobinPS, 0, 48, o)
}

func BenchmarkAblation_CutEdgeGreedyMapping(b *testing.B) {
	absorbBench(b, core.CutEdgePS, 0, 48, benchOptions(core.CutEdgePS))
}

func BenchmarkAblation_CutEdgeNaiveMapping(b *testing.B) {
	o := benchOptions(core.CutEdgePS)
	o.NaiveBatchMapping = true
	absorbBench(b, core.CutEdgePS, 0, 48, o)
}

// --- Engine-phase micro-benches ---

func BenchmarkPhaseDDandIA(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.New(g, benchOptions(core.RoundRobinPS)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPhaseRCStep(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := core.New(g, benchOptions(core.RoundRobinPS))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		e.Step() // the first (heaviest) recombination step
	}
}

// Public-API end-to-end bench: the quickstart flow.
func BenchmarkPublicAPIEndToEnd(b *testing.B) {
	g, err := anytime.ScaleFreeGraph(benchN, 3, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	opts := anytime.DefaultOptions()
	opts.P = benchP
	opts.Seed = benchSeed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := anytime.NewEngine(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		batch, err := anytime.PreferentialBatch(g, 16, 2, 1, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.QueueBatch(batch); err != nil {
			b.Fatal(err)
		}
		e.Run()
		_ = e.Snapshot()
	}
}
