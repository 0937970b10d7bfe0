package serve

import (
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"anytime/internal/core"
	"anytime/internal/obs"
	"anytime/internal/stream"
)

// scrape fetches /metrics through the real handler stack and parses the
// Prometheus exposition.
func scrape(t *testing.T, srv *Server) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	m, err := obs.ParseText(rec.Body)
	if err != nil {
		t.Fatalf("parsing exposition: %v\n%s", err, rec.Body.String())
	}
	return m
}

// TestMetricsPrometheusExposition: GET /metrics serves parseable Prometheus
// text carrying the serving counters, the per-processor load gauges with
// proc labels, the step load-imbalance gauge, and per-route latency
// histograms.
func TestMetricsPrometheusExposition(t *testing.T) {
	const p = 3
	srv, err := New(testEngine(t, testBase(t, 60, 7), p, 7), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if err := srv.Admit([]stream.Event{{Kind: stream.AddEdge, U: 1, V: 30, W: 2}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "convergence", func() bool { return srv.View().Converged && srv.View().QueueDepth == 0 })

	// One instrumented read so a latency histogram has a sample.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/topk?k=3", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /v1/topk = %d", rec.Code)
	}

	m := scrape(t, srv)
	for _, key := range []string{
		"aa_events_admitted_total",
		`aa_events_rejected_total{reason="backpressure"}`,
		`aa_events_rejected_total{reason="invalid"}`,
		"aa_queue_depth",
		"aa_pending_events",
		"aa_engine_queued_events",
		"aa_snapshot_version",
		"aa_snapshot_converged",
		"aa_engine_rc_steps_total",
		"aa_engine_virtual_seconds_total",
		`aa_engine_ops_total{phase="rc"}`,
		"aa_comm_messages_total",
		"aa_step_imbalance",
		"aa_step_rows",
		"aa_step_dirty_rows",
		`aa_http_request_seconds_count{route="topk"}`,
		`aa_http_request_seconds_bucket{route="topk",le="+Inf"}`,
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("exposition missing %q", key)
		}
	}
	for i := 0; i < p; i++ {
		for _, fam := range []string{"aa_proc_rows", "aa_proc_dirty_rows", "aa_proc_boundary_rows", "aa_proc_relax_ops", "aa_proc_busy_seconds"} {
			key := fam + `{proc="` + string(rune('0'+i)) + `"}`
			if _, ok := m[key]; !ok {
				t.Errorf("exposition missing %q", key)
			}
		}
	}
	if v := m["aa_step_imbalance"]; v < 1 {
		t.Errorf("aa_step_imbalance = %v, want >= 1 (max/mean)", v)
	}
	if m["aa_events_admitted_total"] != 1 {
		t.Errorf("aa_events_admitted_total = %v, want 1", m["aa_events_admitted_total"])
	}
	if m[`aa_http_request_seconds_count{route="topk"}`] < 1 {
		t.Error("topk latency histogram recorded no samples")
	}
	if m["aa_step_rows"] <= 0 || m["aa_step_rows"] != sumProc(m, "aa_proc_rows", p) {
		t.Errorf("aa_step_rows = %v, per-proc sum = %v", m["aa_step_rows"], sumProc(m, "aa_proc_rows", p))
	}
}

func sumProc(m map[string]float64, fam string, p int) float64 {
	var s float64
	for i := 0; i < p; i++ {
		s += m[fam+`{proc="`+string(rune('0'+i))+`"}`]
	}
	return s
}

// TestMetricsMonotoneAcrossRestart: the engine totals rendered on /metrics
// must never step backwards, even when an induced step failure makes the
// driver throw the engine away and restore an older checkpoint (whose own
// metrics reset). Runs under -race via `make race`.
func TestMetricsMonotoneAcrossRestart(t *testing.T) {
	base := testBase(t, 80, 11)
	path := filepath.Join(t.TempDir(), "serve.ckpt")
	srv, err := New(testEngine(t, base, 4, 11), Config{
		CheckpointPath:  path,
		CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	monotone := []string{
		"aa_engine_rc_steps_total",
		"aa_engine_virtual_seconds_total",
		`aa_engine_ops_total{phase="rc"}`,
		"aa_comm_messages_total",
		"aa_comm_bytes_total",
	}
	last := map[string]float64{}
	check := func(when string) {
		t.Helper()
		m := scrape(t, srv)
		for _, key := range monotone {
			if m[key] < last[key] {
				t.Fatalf("%s went backwards %s: %v -> %v", key, when, last[key], m[key])
			}
			last[key] = m[key]
		}
	}

	if err := srv.Admit([]stream.Event{{Kind: stream.AddEdge, U: 1, V: 40, W: 1}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "periodic checkpoint", func() bool { return srv.Counters().CheckpointsWritten.Load() >= 1 })
	check("before restart")

	// Concurrent scrapes race the restart itself.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		}
	}()

	srv.failNextStep.Store(true)
	if err := srv.Admit([]stream.Event{{Kind: stream.AddEdge, U: 2, V: 50, W: 2}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "engine restart", func() bool { return srv.Counters().EngineRestarts.Load() == 1 })
	<-done
	check("across restart")

	// Post-restart progress climbs from the rebased totals.
	if err := srv.Admit([]stream.Event{{Kind: stream.AddEdge, U: 3, V: 60, W: 1}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-restart convergence", func() bool {
		v := srv.View()
		return v.Converged && v.QueueDepth == 0
	})
	check("after restart")
	if m := scrape(t, srv); m["aa_engine_restarts_total"] != 1 {
		t.Fatalf("aa_engine_restarts_total = %v, want 1", m["aa_engine_restarts_total"])
	}
}

// TestFrontierDensityIsDirtyRowDensity: aa_step_bound_gap and
// aa_frontier_density derive from one quality triple but mean different
// things — frontier bits over all DV cells vs over the dirty rows' cells —
// so on a partially dirty step they must differ, matching the
// aa_rank_bound_gap / aa_rank_frontier_density pair.
func TestFrontierDensityIsDirtyRowDensity(t *testing.T) {
	srv, err := New(testEngine(t, testBase(t, 60, 7), 2, 7), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	waitFor(t, "convergence", func() bool { return srv.View().Converged })

	m := srv.metrics
	m.observeStep(core.StepStats{TotalRows: 60, DirtyRows: 15, BoundGap: 0.02})
	if got := m.stepBoundGap.Load(); got != 0.02 {
		t.Fatalf("aa_step_bound_gap = %g, want 0.02 (bits / all cells)", got)
	}
	if got, want := m.frontierDensity.Load(), 0.02*60/15; got != want {
		t.Fatalf("aa_frontier_density = %g, want %g (bits / dirty-row cells)", got, want)
	}
	m.observeStep(core.StepStats{TotalRows: 60, DirtyRows: 0})
	if got := m.frontierDensity.Load(); got != 0 {
		t.Fatalf("aa_frontier_density = %g with no dirty row, want 0", got)
	}
}
