package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"anytime/internal/change"
	"anytime/internal/dv"
	"anytime/internal/gen"
	"anytime/internal/graph"
	"anytime/internal/obs"
	"anytime/internal/transport"
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
	opts.noFrontierMask = noMask
	// The timed cascades start from a clean convergence, where the engine
	// would only count the charge of its sweeps (exact-state steps): these
	// rows time the sweeps themselves.
	opts.forceExec = true
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
		shipBytes += m1.Comm.ByTag[transport.TagBoundaryDV].Bytes - m0.Comm.ByTag[transport.TagBoundaryDV].Bytes
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
		opts.tileSize = tile
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
			ops := p.relaxStep(nil, true, workers, e.opts.tileSize)
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

var benchOutboxSink [][]transport.Message

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
			for _, v := range p.cut {
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

// ---------------------------------------------------------------------------
// Anytime interrupt benchmark on the absorb_cutedge shape: a warm-started
// BA n=1000 engine (P=4) that absorbs a 16-vertex CutEdge-PS community
// batch. cold rescans every row; clean re-snapshots an unchanged engine;
// after-batch replays, untimed before every call, the watermarks the
// batch's writes leave behind (each row's first changed column), so every
// iteration rescans what one absorbed batch changed. cells/op is the
// number of DV cells Snapshot read.
// ---------------------------------------------------------------------------

func BenchmarkSnapshot(b *testing.B) {
	g, err := gen.BarabasiAlbert(1000, 3, gen.Weights{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	batch, err := gen.CommunityBatch(g, 16, 1.5, gen.Weights{}, 1000)
	if err != nil {
		b.Fatal(err)
	}
	opts := NewOptions()
	opts.P, opts.Workers, opts.Seed, opts.Strategy = 4, 1, 500, CutEdgePS
	e, err := NewConverged(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	before := e.Distances()
	if err := e.QueueBatch(batch); err != nil {
		b.Fatal(err)
	}
	e.Run()
	type mark struct {
		r  *dv.Row
		lo int
	}
	var marks []mark
	for _, p := range e.procs {
		for _, r := range p.table.Rows() {
			var old []graph.Dist
			if int(r.Owner) < len(before) {
				old = before[r.Owner]
			}
			for t, d := range r.D {
				if (t >= len(old) && d != graph.InfDist) || (t < len(old) && d != old[t]) {
					marks = append(marks, mark{r, t})
					break
				}
			}
		}
	}
	e.Snapshot()
	bench := func(name string, dirty func()) {
		b.Run(name, func(b *testing.B) {
			cells := e.snapshotCells.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dirty != nil {
					b.StopTimer()
					dirty()
					b.StartTimer()
				}
				e.Snapshot()
			}
			b.StopTimer()
			b.ReportMetric(float64(e.snapshotCells.Load()-cells)/float64(b.N), "cells/op")
		})
	}
	bench("cold", func() {
		for _, p := range e.procs {
			p.MarkAllShipAll()
		}
	})
	bench("clean", nil)
	bench("after-batch", func() {
		for _, m := range marks {
			m.r.MarkChanged(m.lo, m.lo+1)
		}
	})
}

// ---------------------------------------------------------------------------
// Exact-state step benchmark: the RC step that follows a 16-vertex
// CutEdge-PS community batch absorbed by Fig. 3 into a warm (NewConverged)
// BA n=1000 engine — the step whose relax phase charges in closed form
// instead of sweeping (exact.go). p=4 is absorb_cutedge's shape, p=1 the
// serving engine's. Each iteration restores the warm engine and applies the
// batch untimed, so run it with a fixed count, e.g. -benchtime 200x.
// ---------------------------------------------------------------------------

func BenchmarkExactStep(b *testing.B) {
	g, err := gen.BarabasiAlbert(1000, 3, gen.Weights{}, 3)
	if err != nil {
		b.Fatal(err)
	}
	batch, err := gen.CommunityBatch(g, 16, 1.5, gen.Weights{}, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		b.Run(fmt.Sprintf("p=%d", procs), func(b *testing.B) {
			opts := NewOptions()
			opts.P = procs
			opts.Workers = 1
			opts.Seed = 5
			opts.Strategy = CutEdgePS
			warm, err := NewConverged(g, opts)
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			if err := warm.WriteCheckpoint(&buf); err != nil {
				b.Fatal(err)
			}
			var relaxOps int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e, err := Restore(bytes.NewReader(buf.Bytes()), opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := e.QueueBatch(batch); err != nil {
					b.Fatal(err)
				}
				e.Step() // converges cleanly, then applies the batch at its end
				if !e.exact {
					b.Fatal("the batch cleared the exact bit")
				}
				b.StartTimer()
				e.Step()
				b.StopTimer()
				s := e.History()[len(e.History())-1]
				if s.RelaxExecOps != 0 {
					b.Fatalf("the exact step executed %d relax ops", s.RelaxExecOps)
				}
				relaxOps += s.RelaxOps
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(relaxOps)/float64(b.N), "relaxops/op")
		})
	}
}

// ---------------------------------------------------------------------------
// Warm start and absorption at absorb_cutedge's shape: a warm
// (NewConverged) BA n=1000 m=3 unit-weight engine at P=4, one worker,
// absorbing CutEdge-PS community batches of 16. Both report B/op, which is
// where the DV table's storage shows.
// ---------------------------------------------------------------------------

func absorbBenchSetup(b *testing.B) (*graph.Graph, []*change.VertexBatch, Options) {
	b.Helper()
	g, err := gen.BarabasiAlbert(1000, 3, gen.Weights{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	batches := make([]*change.VertexBatch, 8)
	for i := range batches {
		if batches[i], err = gen.CommunityBatch(g, 16, 1.5, gen.Weights{}, int64(1000+i)); err != nil {
			b.Fatal(err)
		}
	}
	opts := NewOptions()
	opts.P, opts.Workers, opts.Seed, opts.Strategy = 4, 1, 500, CutEdgePS
	return g, batches, opts
}

// BenchmarkWarmStart times NewConverged: partitioning, one table per
// processor, and the global IA into it.
func BenchmarkWarmStart(b *testing.B) {
	g, _, opts := absorbBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewConverged(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAbsorbCycle times 8 batches, each queued and run to
// convergence, on a fresh warm engine built untimed per iteration; run it
// with a fixed count, e.g. -benchtime 10x. Besides the cycle's ns/op it
// reports the first batch (absorbed from the warm start's exact state)
// and the mean of the later ones, each in ms.
func BenchmarkAbsorbCycle(b *testing.B) {
	g, batches, opts := absorbBenchSetup(b)
	var first, later time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := NewConverged(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for k, batch := range batches {
			start := time.Now()
			if err := e.QueueBatch(batch); err != nil {
				b.Fatal(err)
			}
			e.Run()
			if !e.Converged() {
				b.Fatal("batch did not converge")
			}
			if k == 0 {
				first += time.Since(start)
			} else {
				later += time.Since(start)
			}
		}
	}
	b.ReportMetric(float64(first)/1e6/float64(b.N), "first-batch-ms")
	b.ReportMetric(float64(later)/1e6/float64(b.N*(len(batches)-1)), "later-batch-ms")
}

// BenchmarkAbsorbEvent times the change phase alone: one CutEdge-PS batch
// of 16 applied through applyEvent (placement, table growth and the Fig. 3
// absorption of its edges) to a warm engine rebuilt untimed per iteration,
// at P=1 and P=4. It reports the change ops the batch charges.
func BenchmarkAbsorbEvent(b *testing.B) {
	g, batches, opts := absorbBenchSetup(b)
	for _, P := range []int{1, 4} {
		b.Run(fmt.Sprintf("p=%d", P), func(b *testing.B) {
			opts := opts
			opts.P = P
			var ops int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e, err := NewConverged(g, opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := e.QueueBatch(batches[0]); err != nil {
					b.Fatal(err)
				}
				before := e.metrics.ChangeOps
				b.StartTimer()
				applyNext(e, e.absorbEdges)
				b.StopTimer()
				if e.Err() != nil {
					b.Fatal(e.Err())
				}
				ops += e.metrics.ChangeOps - before
				b.StartTimer()
			}
			b.ReportMetric(float64(ops)/float64(b.N), "changeops/op")
		})
	}
}
