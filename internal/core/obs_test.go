package core

import (
	"sync/atomic"
	"testing"

	"anytime/internal/gen"
	"anytime/internal/obs"
)

func obsTestEngine(t *testing.T, n, p int, tr *obs.Tracer) *Engine {
	t.Helper()
	g, err := gen.BarabasiAlbert(n, 2, gen.Weights{Min: 1, Max: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	gen.Connectify(g, 5)
	opts := NewOptions()
	opts.P = p
	opts.Seed = 5
	opts.Obs = tr
	e, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEngineSpansRecorded: a traced run emits the span taxonomy — one DD
// span, per-processor IA spans, and ship/relax/refine-tile/step spans per
// RC step — with sane processors and non-negative durations.
func TestEngineSpansRecorded(t *testing.T) {
	const p = 3
	tr := obs.NewTracer(obs.DefaultCapacity)
	e := obsTestEngine(t, 80, p, tr)
	e.Run()
	if !e.Converged() {
		t.Fatal("engine did not converge")
	}
	b, err := gen.PreferentialBatch(e.Graph(), 4, 2, 1, gen.Weights{Min: 1, Max: 4}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(b); err != nil {
		t.Fatal(err)
	}
	e.Run()

	counts := map[obs.Kind]int{}
	for _, s := range tr.Spans() {
		counts[s.Kind]++
		if s.Proc < -1 || int(s.Proc) >= p {
			t.Fatalf("span %v has processor %d outside [-1, %d)", s.Kind, s.Proc, p)
		}
		if s.WallDur < 0 || s.VirtDur < 0 {
			t.Fatalf("span %v has negative duration: wall %v, virt %v", s.Kind, s.WallDur, s.VirtDur)
		}
		switch s.Kind {
		case obs.KindDD, obs.KindRCStep, obs.KindChange:
			if s.Proc != -1 {
				t.Fatalf("engine-wide span %v tagged with processor %d", s.Kind, s.Proc)
			}
		case obs.KindIA, obs.KindRCShip, obs.KindRCRelax, obs.KindRCRefineTile:
			if s.Proc < 0 {
				t.Fatalf("per-processor span %v missing processor", s.Kind)
			}
		}
	}
	steps := e.StepsTaken()
	if counts[obs.KindDD] != 1 {
		t.Errorf("DD spans = %d, want 1", counts[obs.KindDD])
	}
	if counts[obs.KindIA] != p {
		t.Errorf("IA spans = %d, want %d (one per processor)", counts[obs.KindIA], p)
	}
	if counts[obs.KindRCStep] != steps {
		t.Errorf("RC-step spans = %d, want %d (StepsTaken)", counts[obs.KindRCStep], steps)
	}
	if counts[obs.KindRCShip] == 0 || counts[obs.KindRCRelax] == 0 || counts[obs.KindRCRefineTile] == 0 {
		t.Errorf("missing RC phase spans: ship %d, relax %d, refine-tile %d",
			counts[obs.KindRCShip], counts[obs.KindRCRelax], counts[obs.KindRCRefineTile])
	}
	if counts[obs.KindChange] == 0 {
		t.Error("no change spans after a queued batch")
	}
}

// TestStepTelemetry: every recorded step carries consistent per-processor
// convergence telemetry, and the converged tail reports zero dirty rows.
func TestStepTelemetry(t *testing.T) {
	const p = 3
	e := obsTestEngine(t, 60, p, nil)
	e.Run()
	hist := e.History()
	if len(hist) == 0 {
		t.Fatal("no history recorded")
	}
	alive := 0
	for v := int32(0); int(v) < e.Graph().NumVertices(); v++ {
		if e.Alive(v) {
			alive++
		}
	}
	for _, st := range hist {
		if len(st.ProcRows) != p || len(st.ProcDirty) != p || len(st.ProcBoundary) != p ||
			len(st.ProcRelaxOps) != p || len(st.ProcBusy) != p {
			t.Fatalf("step %d: per-proc slices have lengths %d/%d/%d/%d/%d, want %d",
				st.Step, len(st.ProcRows), len(st.ProcDirty), len(st.ProcBoundary),
				len(st.ProcRelaxOps), len(st.ProcBusy), p)
		}
		rows, dirty := 0, 0
		for i := 0; i < p; i++ {
			rows += st.ProcRows[i]
			dirty += st.ProcDirty[i]
			if st.ProcBusy[i] < 0 {
				t.Fatalf("step %d: negative busy time on processor %d", st.Step, i)
			}
		}
		if rows != st.TotalRows || dirty != st.DirtyRows {
			t.Fatalf("step %d: totals %d/%d don't match per-proc sums %d/%d",
				st.Step, st.TotalRows, st.DirtyRows, rows, dirty)
		}
		if st.Imbalance < 1 {
			t.Fatalf("step %d: imbalance %v < 1", st.Step, st.Imbalance)
		}
	}
	final := hist[len(hist)-1]
	if final.TotalRows != alive {
		t.Fatalf("final TotalRows = %d, want %d live vertices", final.TotalRows, alive)
	}
	if !final.ConvergedAfter || final.DirtyRows != 0 {
		t.Fatalf("final step: converged=%v dirty=%d, want converged with 0 dirty rows",
			final.ConvergedAfter, final.DirtyRows)
	}
}

// TestHistoryReturnsCopy: mutating the returned slice must not corrupt the
// engine's own log (the aliasing bug this API change fixed).
func TestHistoryReturnsCopy(t *testing.T) {
	e := obsTestEngine(t, 40, 2, nil)
	e.Run()
	h := e.History()
	if len(h) == 0 {
		t.Fatal("no history")
	}
	want := h[0].Step
	h[0].Step = -999
	if got := e.History()[0].Step; got != want {
		t.Fatalf("mutating History() result leaked into the engine: step %d, want %d", got, want)
	}
}

// TestSetStepHookSwapDuringRun: SetStepHook is safe to call while the
// driver goroutine steps the engine (exercised under -race via make race).
func TestSetStepHookSwapDuringRun(t *testing.T) {
	e := obsTestEngine(t, 80, 2, nil)
	var calls atomic.Int64
	stop := make(chan struct{})
	swapped := make(chan struct{})
	go func() {
		defer close(swapped)
		fn := func(StepStats) { calls.Add(1) }
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				e.SetStepHook(fn)
			} else {
				e.SetStepHook(nil)
			}
		}
	}()
	for e.Step() {
	}
	close(stop)
	<-swapped
	if !e.Converged() {
		t.Fatal("engine did not converge under hook churn")
	}
}

// TestNilObsZeroAllocSpanHelpers: with no tracer configured, the span
// helpers on the instrumented paths are branch-only — zero allocations.
func TestNilObsZeroAllocSpanHelpers(t *testing.T) {
	e := obsTestEngine(t, 40, 2, nil)
	e.Run()
	if avg := testing.AllocsPerRun(200, func() {
		m := e.mark()
		e.span(obs.KindRCStep, m, 1)
		pm := e.markProc(0)
		e.spanProc(obs.KindRCRelax, 0, pm, 1)
		e.spanProcMark(obs.KindCrash, 0, m, 0)
	}); avg != 0 {
		t.Fatalf("disabled span helpers allocate %v per run, want 0", avg)
	}
}
