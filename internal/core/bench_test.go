package core

import (
	"bytes"
	"testing"
	"time"

	"anytime/internal/change"
	"anytime/internal/cluster"
	"anytime/internal/gen"
	"anytime/internal/graph"
	"anytime/internal/obs"
)

// ---------------------------------------------------------------------------
// RC relax-phase benchmarks: virtual Fig. 4 scale (n=400 Barabási–Albert
// m=3, P=4) with a 16-vertex batch injected into a converged engine. Each
// iteration restores the converged pre-injection state from an in-memory
// checkpoint (untimed), applies the batch (untimed), then times the RC
// relax cascade to re-convergence.
// ---------------------------------------------------------------------------

const (
	benchRCN     = 400
	benchRCP     = 4
	benchRCBatch = 16
	// benchRCSparse is the sparse-change batch: 4 vertices on n=400 leave
	// ≤1% of the columns dirty, the regime the frontier masks target.
	benchRCSparse = 4
)

func rcBenchSetup(b *testing.B, workers, batchSize int, noMask bool) (ckpt []byte, opts Options, batch *change.VertexBatch) {
	b.Helper()
	g, err := gen.BarabasiAlbert(benchRCN, 3, gen.Weights{Min: 1, Max: 4}, 1)
	if err != nil {
		b.Fatal(err)
	}
	gen.Connectify(g, 1)
	opts = NewOptions()
	opts.P = benchRCP
	opts.Workers = workers
	opts.Seed = 1
	opts.NoFrontierMask = noMask
	e, err := New(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	e.Run()
	if !e.Converged() {
		b.Fatal("setup engine did not converge")
	}
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		b.Fatal(err)
	}
	batch, err = gen.PreferentialBatch(e.Graph(), batchSize, 2, 1, gen.Weights{Min: 1, Max: 4}, 42)
	if err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), opts, batch
}

func benchRCRelaxPhase(b *testing.B, workers, batchSize int, noMask bool) {
	ckpt, opts, batch := rcBenchSetup(b, workers, batchSize, noMask)
	var steps, rows, shipBytes, relaxOps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := Restore(bytes.NewReader(ckpt), opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.QueueBatch(batch); err != nil {
			b.Fatal(err)
		}
		// The engine restores converged, so this first step ships nothing
		// and applies the batch at its end (untimed change-incorporation
		// work).
		e.Step()
		m0 := e.Metrics()
		h0 := len(e.History())
		b.StartTimer()
		for e.Step() {
		}
		b.StopTimer()
		m1 := e.Metrics()
		steps += int64(m1.RCSteps - m0.RCSteps)
		for _, s := range e.History()[h0:] {
			rows += int64(s.RowsShipped)
		}
		shipBytes += m1.Comm.ByTag[cluster.TagBoundaryDV].Bytes - m0.Comm.ByTag[cluster.TagBoundaryDV].Bytes
		relaxOps += m1.RCOps - m0.RCOps
		b.StartTimer()
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(steps)/n, "steps/op")
	b.ReportMetric(float64(relaxOps)/n, "relaxops/op")
	b.ReportMetric(float64(shipBytes)/n, "shipbytes/op")
	if steps > 0 {
		b.ReportMetric(float64(rows)/float64(steps), "rowsshipped/step")
	}
}

func BenchmarkRCRelaxPhaseWorkers1(b *testing.B) {
	benchRCRelaxPhase(b, 1, benchRCBatch, false)
}

func BenchmarkRCRelaxPhaseWorkers4(b *testing.B) {
	benchRCRelaxPhase(b, 4, benchRCBatch, false)
}

// benchRCRelaxSparseEdges is the frontier masks' target regime: a batch of
// benchRCSparse shortcut edges (weight 1 between far-apart existing
// vertices) queued into a converged engine. The immediate-update scans
// record exactly which columns each row improved at, so the reconvergence
// steps pivot rows whose frontiers are sparse — nearly every pivot column
// is provably non-improving and the masked sweeps skip it. The NoMask twin
// runs the identical workload with full-row sweeps; the pair is the masked
// win, measured.
func benchRCRelaxSparseEdges(b *testing.B, noMask bool) {
	ckpt, opts, _ := rcBenchSetup(b, 1, benchRCSparse, noMask)
	e, err := Restore(bytes.NewReader(ckpt), opts)
	if err != nil {
		b.Fatal(err)
	}
	// Deterministic shortcut picks: the first benchRCSparse non-adjacent
	// pairs at distance >= 8, no vertex reused, scanned in index order.
	// Each edge weighs one less than the current distance, so it improves
	// every affected row by exactly 1 — a genuinely sparse disturbance
	// (few columns per row change) rather than a topology rewrite.
	ds := e.Distances()
	used := make([]bool, benchRCN)
	var adds []change.EdgeAdd
	for u := 0; u < benchRCN && len(adds) < benchRCSparse; u++ {
		if used[u] || ds[u] == nil {
			continue
		}
		for v := u + 1; v < benchRCN; v++ {
			if used[v] || ds[u][v] == graph.InfDist || ds[u][v] < 8 || e.Graph().HasEdge(u, v) {
				continue
			}
			adds = append(adds, change.EdgeAdd{U: int32(u), V: int32(v), Weight: ds[u][v] - 1})
			used[u], used[v] = true, true
			break
		}
	}
	if len(adds) < benchRCSparse {
		b.Fatalf("found only %d shortcut pairs", len(adds))
	}
	var steps, relaxOps, maskedOps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := Restore(bytes.NewReader(ckpt), opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.QueueEdgeAdds(adds...); err != nil {
			b.Fatal(err)
		}
		// The engine restores converged, so this first step ships nothing
		// and applies the edge batch at its end — the immediate-update
		// scans, identical on both paths, stay untimed; the timed region is
		// the pure relax/refine reconvergence cascade where the masked
		// sweeps engage.
		if !e.Step() {
			b.Fatal("expected reconvergence work after the edge batch")
		}
		m0 := e.Metrics()
		h0 := len(e.History())
		b.StartTimer()
		for e.Step() {
		}
		b.StopTimer()
		m1 := e.Metrics()
		steps += int64(m1.RCSteps - m0.RCSteps)
		relaxOps += m1.RCOps - m0.RCOps
		for _, s := range e.History()[h0:] {
			maskedOps += s.MaskedOps
		}
		b.StartTimer()
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(steps)/n, "steps/op")
	b.ReportMetric(float64(relaxOps)/n, "relaxops/op")
	b.ReportMetric(float64(maskedOps)/n, "maskedops/op")
}

func BenchmarkRCRelaxPhaseSparse(b *testing.B)       { benchRCRelaxSparseEdges(b, false) }
func BenchmarkRCRelaxPhaseSparseNoMask(b *testing.B) { benchRCRelaxSparseEdges(b, true) }

// ---------------------------------------------------------------------------
// Refine-phase benchmarks: the tiled blocked-Floyd–Warshall pass in
// isolation. A converged engine's rows are all marked changed, so every
// pivot is active and the pass streams the full O((n/P)² · n) relax work —
// but, being converged, no distance improves, so iterations are identical
// and nothing needs restoring. Processors run one after another: the number
// measures how one processor's refine scales across its worker pool.
// ---------------------------------------------------------------------------

func benchRCRefinePhase(b *testing.B, workers, tile int) {
	g, err := gen.BarabasiAlbert(benchRCN, 3, gen.Weights{Min: 1, Max: 4}, 1)
	if err != nil {
		b.Fatal(err)
	}
	gen.Connectify(g, 1)
	opts := NewOptions()
	opts.P = benchRCP
	opts.Seed = 1
	opts.Workers = workers
	if tile > 0 {
		opts.TileSize = tile
	}
	e, err := New(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	e.Run()
	if !e.Converged() {
		b.Fatal("setup engine did not converge")
	}
	var relaxOps int64
	var virt float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		relaxOps = 0
		var worst time.Duration
		for _, p := range e.procs {
			rows := p.table.Rows()
			p.changed = resizeBools(p.changed, len(rows))
			p.pivot = resizeBools(p.pivot, len(rows))
			for j := range p.changed {
				p.changed[j] = true
			}
			// Dense epoch: the converged engine cleared every frontier, which
			// would let the masked kernels skip the whole pass. Marking FAll
			// forces the full-row sweeps, so this benchmark keeps measuring
			// the dense/early-pass streaming path the 15% gate protects.
			for _, r := range rows {
				r.FAll = true
			}
			ops := p.relaxStep(nil, true, workers, e.opts.TileSize)
			relaxOps += ops
			// The engine's LogP charge for the relax phase: ops divided
			// across the per-processor worker pool, slowest processor
			// setting the simulated clock (see relaxAll).
			if d := e.mach.Model().Work(ops / int64(workers)); d > worst {
				worst = d
			}
		}
		virt += worst.Seconds() * 1000
	}
	b.StopTimer()
	b.ReportMetric(float64(relaxOps), "relaxops/op")
	b.ReportMetric(virt/float64(b.N), "virt-ms/op")
}

func BenchmarkRCRefinePhaseWorkers1(b *testing.B) { benchRCRefinePhase(b, 1, 0) }

func BenchmarkRCRefinePhaseWorkers4(b *testing.B) { benchRCRefinePhase(b, 4, 0) }

// BenchmarkRCRefinePhaseUntiledWorkers4 spans all rows with one tile: phase
// A (serial) covers everything, so this isolates what the tiling itself
// buys the parallel pass.
func BenchmarkRCRefinePhaseUntiledWorkers4(b *testing.B) {
	benchRCRefinePhase(b, 4, 1<<30)
}

// ---------------------------------------------------------------------------
// Boundary-shipping benchmarks: steady-state ship of every boundary row with
// a 32-column pending window. allocs/op pins the Engine's ship-buffer reuse:
// what remains is the unavoidable one snapshot slice per shipped row.
// ---------------------------------------------------------------------------

var benchOutboxSink [][]cluster.Message

func BenchmarkRCShipBoundary(b *testing.B) {
	g, err := gen.BarabasiAlbert(benchRCN, 3, gen.Weights{Min: 1, Max: 4}, 1)
	if err != nil {
		b.Fatal(err)
	}
	gen.Connectify(g, 1)
	opts := NewOptions()
	opts.P = benchRCP
	opts.Seed = 1
	e, err := New(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range e.procs {
			for _, v := range p.sub.LocalBoundary {
				if r := p.table.Row(v); r != nil {
					r.MarkChanged(64, 96)
				}
			}
		}
		benchOutboxSink = e.shipBoundary()
	}
}

// ---------------------------------------------------------------------------
// Traced RC benchmark: the Workers1 relax cascade with the obs tracer (and
// phase-span recording) enabled. bench-compare holds it within the 15% gate
// of its committed baseline, pinning the cost of the observability layer on
// the instrumented hot path.
// ---------------------------------------------------------------------------

func BenchmarkRCStepTraced(b *testing.B) {
	ckpt, opts, batch := rcBenchSetup(b, 1, benchRCBatch, false)
	opts.Obs = obs.NewTracer(obs.DefaultCapacity)
	var steps, spans int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		opts.Obs.Reset()
		e, err := Restore(bytes.NewReader(ckpt), opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.QueueBatch(batch); err != nil {
			b.Fatal(err)
		}
		e.Step() // untimed change incorporation, as in the untraced rows
		m0 := e.Metrics()
		b.StartTimer()
		for e.Step() {
		}
		b.StopTimer()
		steps += int64(e.Metrics().RCSteps - m0.RCSteps)
		spans += int64(opts.Obs.Len()) + opts.Obs.Dropped()
		b.StartTimer()
	}
	b.StopTimer()
	if spans == 0 {
		b.Fatal("traced run recorded no spans")
	}
	n := float64(b.N)
	b.ReportMetric(float64(steps)/n, "steps/op")
	b.ReportMetric(float64(spans)/n, "spans/op")
}
