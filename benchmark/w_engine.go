package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"time"

	"anytime/internal/centrality"
	"anytime/internal/change"
	"anytime/internal/core"
	"anytime/internal/gen"
	"anytime/internal/graph"
	"anytime/internal/partition"
	"anytime/internal/sssp"
)

// maxSteps bounds every step loop; a run that needs more did not converge.
const maxSteps = 500

// engineOptions is the fixed engine configuration of the simulator
// workloads: four simulated processors of one worker each, so the four
// processor goroutines keep both cores of the reference machine busy.
// Every cycle partitions with a seed of its own.
func (e env) engineOptions(strategy core.Strategy, cycle int) core.Options {
	return core.Options{P: 4, Workers: 1, Seed: e.derive(int64(500 + cycle)), Strategy: strategy, Obs: e.obs}
}

// engineFacts is what an engine's exported counters say at one point.
type engineFacts struct {
	metrics core.Metrics
	history []core.StepStats
	quality partition.Quality
}

func factsOf(e *core.Engine) engineFacts {
	return engineFacts{metrics: e.Metrics(), history: e.History(), quality: partition.Evaluate(e.Graph(), e.Partition())}
}

func (f engineFacts) layers(out map[string]float64) {
	mt := f.metrics
	var relax, masked int64
	var rows, full, width int
	var imb float64
	for _, h := range f.history {
		relax += h.RelaxOps
		masked += h.MaskedOps
		rows += h.RowsShipped
		full += h.FullRowsShipped
		width = max(width, h.MaxDeltaWidth)
		imb = math.Max(imb, h.Imbalance)
	}
	out["core.steps"] = float64(mt.RCSteps)
	out["core.rc_ops"] = float64(mt.RCOps)
	out["core.change_ops"] = float64(mt.ChangeOps)
	if relax > 0 {
		out["core.masked_ops_share"] = float64(masked) / float64(relax)
	}
	out["core.imbalance_max"] = imb
	out["core.rows_migrated"] = float64(mt.RowsMigrated)
	out["core.new_cut_edges"] = float64(mt.NewCutEdges)
	out["dv.rows_shipped"] = float64(rows)
	out["dv.full_rows_shipped"] = float64(full)
	out["dv.max_delta_width"] = float64(width)
	out["dv.resize_copies"] = float64(mt.ResizeCopies)
	out["sssp.ia_ops"] = float64(mt.IAOps)
	out["cluster.messages"] = float64(mt.Comm.Messages)
	out["cluster.chunks"] = float64(mt.Comm.Chunks)
	out["cluster.bytes"] = float64(mt.Comm.Bytes)
	out["cluster.barriers"] = float64(mt.Comm.Barriers)
	out["cluster.virt_s"] = mt.VirtualTime.Seconds()
	out["cluster.shipped_mb"] = float64(mt.Comm.Bytes) / 1e6
	out["partition.edge_cut"] = float64(f.quality.EdgeCut)
	out["partition.imbalance"] = f.quality.Imbalance
}

// spanLayers reads the engine phases out of a traced run's time budget,
// as seconds per update operation.
func spanLayers(b *budget, ops int, out map[string]float64) {
	per := func(keys ...string) float64 { return b.perOp(ops, keys...) }
	out["partition.dd_s"] = per("dd")
	out["sssp.ia_s"] = per("ia")
	out["core.ship_s"] = per("rc-ship")
	out["core.relax_s"] = per("rc-relax")
	out["core.refine_s"] = per("rc-refine-tile")
	out["core.change_s"] = per("change")
	out["core.queue_batch_s"] = per("core.Engine.QueueBatch")
	out["core.unattributed_s"] = per("core.Engine.Step", "rc-step")
	if n := b.count["core.Engine.Snapshot"]; n > 0 {
		out["core.snapshot_s"] = b.self["core.Engine.Snapshot"].Seconds() / float64(n)
	}
	if n := b.count["centrality.TopK"]; n > 0 {
		out["centrality.topk_ns"] = float64(b.self["centrality.TopK"]) / float64(n)
	}
}

// answer is the anytime interrupt: gather a snapshot and rank the top 10.
func answer(e *core.Engine, rec *recorder, parent int32) (core.Snapshot, []int) {
	sp := rec.begin(parent, "core.Engine.Snapshot")
	snap := e.Snapshot()
	rec.end(sp)
	sp = rec.begin(parent, "centrality.TopK")
	top := snap.TopK(10)
	rec.end(sp)
	return snap, top
}

// checkEngine compares a converged engine with the sequential oracle of
// its final graph: distances bit for bit, and the top 10 by closeness. It
// returns what the oracle took, the exact closeness, and what is wrong.
func checkEngine(e *core.Engine, top []int) (oracle time.Duration, exact []float64, problem string) {
	t0 := time.Now()
	want := sssp.APSP(e.Graph())
	exact = oracleCloseness(want)
	wantTop := centrality.TopK(exact, 10)
	oracle = time.Since(t0)
	switch {
	case !e.Converged():
		problem = "engine did not converge"
	case !sameMatrix(e.Distances(), want):
		problem = "converged distances differ from sssp.APSP"
	case !slices.Equal(top, wantTop):
		problem = fmt.Sprintf("top-10 %v differs from the oracle's %v", top, wantTop)
	}
	return oracle, exact, problem
}

// engineProbes times the layers a workload's spans do not isolate, on the
// workload's own final engine.
func engineProbes(e *core.Engine, sz sizes, out map[string]float64) error {
	kernelProbe(e.Distances(), sz.probe, out)
	extendColsProbe(e.Graph().NumVertices(), e.Options().P, sz.absorbBatch, out)
	repartitionProbe(e, sz.absorbBatch, out)

	var buf bytes.Buffer
	t0 := time.Now()
	if err := e.WriteCheckpoint(&buf); err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	out["core.checkpoint_write_s"] = time.Since(t0).Seconds()
	out["core.checkpoint_bytes"] = float64(buf.Len())
	opts := e.Options()
	opts.Obs = nil
	t0 = time.Now()
	r, err := core.Restore(&buf, opts)
	if err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	out["core.checkpoint_restore_s"] = time.Since(t0).Seconds()
	if !sameMatrix(r.Distances(), e.Distances()) {
		return fmt.Errorf("checkpoint probe: restored distances differ")
	}
	return nil
}

// staticDense converges BA graphs from scratch: core.New (DD + IA) and RC
// steps until no processor has updates, taking the anytime answer after
// every step.
type staticDense struct {
	env
	g    *graph.Graph // of the next cycle
	genS float64

	first   engineFacts
	tErr10  float64
	stepDur []time.Duration
	oracleS []time.Duration
	last    *core.Engine
}

func (s *staticDense) Setup() error { return s.generate(0) }

// generate makes cycle c's graph: every cycle converges another one.
func (s *staticDense) generate(c int) (err error) {
	t0 := time.Now()
	s.g, err = gen.BarabasiAlbert(s.size.staticN, 3, gen.Weights{}, s.derive(int64(100+c)))
	s.genS = time.Since(t0).Seconds()
	return err
}

func (s *staticDense) Cycle(c int, m *meter) error {
	if c > 0 {
		var err error
		m.untimed(func() { err = s.generate(c) })
		if err != nil {
			return err
		}
	}
	g := s.g
	var snaps [][]float64
	var snapAt []time.Duration
	var answers time.Duration

	op := s.rec.begin(0, "bench.converge")
	t0 := time.Now()
	sp := s.rec.begin(op, "core.New")
	e, err := core.New(g, s.engineOptions(core.RoundRobinPS, c))
	s.rec.end(sp)
	if err != nil {
		return err
	}
	var top []int
	for more, steps := true, 0; more && steps < maxSteps; steps++ {
		sp = s.rec.begin(op, "core.Engine.Step")
		ts := time.Now()
		more = e.Step()
		s.stepDur = append(s.stepDur, time.Since(ts))
		s.rec.end(sp)

		ta := time.Now()
		var snap core.Snapshot
		snap, top = answer(e, s.rec, op)
		d := time.Since(ta)
		m.answer(d)
		answers += d
		if c == 0 {
			snaps = append(snaps, snap.Closeness)
			snapAt = append(snapAt, time.Since(t0))
		}
	}
	total := time.Since(t0)
	s.rec.end(op)
	m.update(total - answers)
	m.markRSS()

	m.untimed(func() {
		oracle, exact, problem := checkEngine(e, top)
		s.oracleS = append(s.oracleS, oracle)
		if problem != "" {
			m.fail(1, "static_dense cycle %d: %s", c, problem)
		}
		if c == 0 {
			s.first = factsOf(e)
			s.tErr10 = timeToError(snaps, snapAt, exact, 0.10)
		}
		s.last = e
	})
	return nil
}

// timeToError returns when the first snapshot whose mean relative closeness
// error is at most limit was in hand (0 if none was).
func timeToError(snaps [][]float64, at []time.Duration, exact []float64, limit float64) float64 {
	for i, c := range snaps {
		var sum float64
		n := 0
		for v, want := range exact {
			if want > 0 {
				sum += math.Abs(c[v]-want) / want
				n++
			}
		}
		if n > 0 && sum/float64(n) <= limit {
			return at[i].Seconds()
		}
	}
	return 0
}

func (s *staticDense) Layers(m *meter, b *budget, out map[string]float64) {
	s.first.layers(out)
	spanLayers(b, len(m.updates), out)
	out["gen.graph_s"] = s.genS
	out["core.t_err10_s"] = s.tErr10
	out["core.step_p50_s"] = quantile(s.stepDur, 0.5).Seconds()
	out["centrality.oracle_s"] = quantile(s.oracleS, 0.5).Seconds()
	if err := engineProbes(s.last, s.size, out); err != nil {
		m.fail(1, "static_dense: %v", err)
	}
}

func (s *staticDense) Close() {}

// absorb warm-starts an engine on the exact APSP of a BA graph and absorbs
// community batches one by one, each to convergence, under one strategy.
// Every cycle starts again from a warm state, on a base graph, a partition
// and batches of its own: how long a batch takes depends on the partition
// it lands in (most of all under Repartition-S), and a run's median only
// settles over many different ones.
type absorb struct {
	env
	strategy core.Strategy
	perCycle int

	batches []*change.VertexBatch // of the current cycle
	e       *core.Engine
	genS    float64
	batchS  float64
	warmS   float64

	first   engineFacts
	stepDur []time.Duration
	oracleS []time.Duration
}

func (a *absorb) Setup() error { return a.start(0) }

// start generates cycle c's graph and batches and warm-starts its engine.
func (a *absorb) start(c int) error {
	a.e, a.batches = nil, nil
	t0 := time.Now()
	g, err := gen.BarabasiAlbert(a.size.absorbN, 3, gen.Weights{}, a.derive(int64(100+c)))
	if err != nil {
		return err
	}
	a.genS = time.Since(t0).Seconds()
	t0 = time.Now()
	for i := 0; i < a.perCycle; i++ {
		b, err := gen.CommunityBatch(g, a.size.absorbBatch, 1.5, gen.Weights{}, a.derive(int64(1000+c*a.perCycle+i)))
		if err != nil {
			return err
		}
		a.batches = append(a.batches, b)
	}
	a.batchS = time.Since(t0).Seconds()
	t0 = time.Now()
	e, err := core.NewConverged(g, a.engineOptions(a.strategy, c))
	a.warmS = time.Since(t0).Seconds()
	a.e = e
	return err
}

func (a *absorb) Cycle(c int, m *meter) error {
	if c > 0 {
		var err error
		m.untimed(func() { err = a.start(c) })
		if err != nil {
			return err
		}
	}
	e := a.e
	var top []int
	done := 0
	for _, b := range a.batches {
		if m.spent() {
			break
		}
		op := a.rec.begin(0, "bench.absorb")
		t0 := time.Now()
		sp := a.rec.begin(op, "core.Engine.QueueBatch")
		err := e.QueueBatch(b)
		a.rec.end(sp)
		if err != nil {
			return err
		}
		for more, steps := true, 0; more && steps < maxSteps; steps++ {
			sp = a.rec.begin(op, "core.Engine.Step")
			ts := time.Now()
			more = e.Step()
			a.stepDur = append(a.stepDur, time.Since(ts))
			a.rec.end(sp)
		}
		m.update(time.Since(t0))
		a.rec.end(op)

		op = a.rec.begin(0, "bench.answer")
		t0 = time.Now()
		_, top = answer(e, a.rec, op)
		m.answer(time.Since(t0))
		a.rec.end(op)
		done++
	}
	m.markRSS()
	m.untimed(func() {
		oracle, _, problem := checkEngine(e, top)
		a.oracleS = append(a.oracleS, oracle)
		if problem != "" {
			m.fail(done, "%s cycle %d: %s", a.strategy, c, problem)
		}
		if want := a.size.absorbN + done*a.size.absorbBatch; e.Graph().NumVertices() != want {
			m.fail(done, "%s cycle %d: %d vertices, want %d", a.strategy, c, e.Graph().NumVertices(), want)
		}
		if c == 0 {
			a.first = factsOf(e)
		}
	})
	return nil
}

func (a *absorb) Layers(m *meter, b *budget, out map[string]float64) {
	a.first.layers(out)
	spanLayers(b, len(m.updates), out)
	out["gen.graph_s"] = a.genS
	out["gen.batch_s"] = a.batchS
	out["sssp.ia_s"] = a.warmS // the warm start is n global searches; it is set-up here
	out["core.step_p50_s"] = quantile(a.stepDur, 0.5).Seconds()
	out["centrality.oracle_s"] = quantile(a.oracleS, 0.5).Seconds()
	if err := engineProbes(a.e, a.size, out); err != nil {
		m.fail(1, "%s: %v", a.strategy, err)
	}
}

func (a *absorb) Close() { a.e = nil }
