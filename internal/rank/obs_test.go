package rank

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"anytime/internal/obs"
	"anytime/internal/transport"
)

// The per-step telemetry refresh is on the rank hot path and must not
// allocate: the quality gauges are free when nobody scrapes, and cheap
// when someone does. Gate test for `make obs-cluster-check`.
func TestRankTelemetryZeroAlloc(t *testing.T) {
	g := testGraph(t, 60, 3)
	tr := transport.NewInprocGroup(1)[0]
	r, err := New(tr, Config{Graph: g, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		r.updateTelemetry(time.Millisecond, 2*time.Millisecond)
		_ = r.Telemetry()
	})
	if allocs != 0 {
		t.Fatalf("telemetry refresh allocates %.1f per step; the rank hot path must stay zero-alloc", allocs)
	}
}

// After a clean convergence every rank's snapshot reports a quiescent
// anytime state: zero dirty rows, zero bound gap, all owned rows
// converged, and a positive step/busy record.
func TestRunnerTelemetrySnapshot(t *testing.T) {
	const n, P, seed = 120, 2, 7
	g := testGraph(t, n, seed)
	ts := inprocGroup(P)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		snaps = make([]Telemetry, P)
		hooks = make([]int, P)
		fail  error
	)
	for i, tr := range ts {
		wg.Add(1)
		go func(i int, tr transport.Transport) {
			defer wg.Done()
			r, err := New(tr, Config{Graph: g, Seed: seed, StepHook: func(Telemetry) {
				mu.Lock()
				hooks[i]++
				mu.Unlock()
			}})
			if err == nil {
				_, err = r.Run()
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				fail = err
				return
			}
			snaps[i] = r.Telemetry()
		}(i, tr)
	}
	wg.Wait()
	if fail != nil {
		t.Fatal(fail)
	}
	totalRows := 0
	for i, s := range snaps {
		if s.Rank != i {
			t.Errorf("rank %d: snapshot says rank %d", i, s.Rank)
		}
		if s.Step <= 0 {
			t.Errorf("rank %d: step %d, want > 0", i, s.Step)
		}
		if int(s.Step) != hooks[i] {
			t.Errorf("rank %d: %d steps but %d StepHook calls", i, s.Step, hooks[i])
		}
		if s.Rows <= 0 {
			t.Errorf("rank %d: rows %d, want > 0", i, s.Rows)
		}
		if s.DirtyRows != 0 || s.DirtyFraction != 0 {
			t.Errorf("rank %d: %d dirty rows (fraction %g) after convergence", i, s.DirtyRows, s.DirtyFraction)
		}
		if s.ConvergedRows != s.Rows {
			t.Errorf("rank %d: %d/%d rows converged", i, s.ConvergedRows, s.Rows)
		}
		if s.BoundGap != 0 {
			t.Errorf("rank %d: bound gap %g at exact fixpoint", i, s.BoundGap)
		}
		if s.BusyTotal <= 0 {
			t.Errorf("rank %d: busy total %v, want > 0", i, s.BusyTotal)
		}
		if s.Degraded || s.DownRanks != 0 {
			t.Errorf("rank %d: degraded=%t down=%d on a healthy run", i, s.Degraded, s.DownRanks)
		}
		totalRows += s.Rows
	}
	if totalRows != n {
		t.Errorf("ranks own %d rows total, want %d", totalRows, n)
	}
}

// The cluster observability acceptance test: three real OS processes each
// serve their own /metrics; the parent scrapes them with the HTTP
// aggregator and must see a well-formed merged exposition carrying
// rank-labeled per-rank series plus the computed cross-rank series
// (aa_cluster_ranks_up, aa_step_imbalance) while the ranks are live; each
// rank's -trace file must hold its spans once it exits.
func TestClusterScrapeMergedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real OS processes")
	}
	const n, P, seed = 100, 3, 9
	ports := testPorts(t, 2*P)
	addrs, obsAddrs := ports[:P], ports[P:]
	dir := t.TempDir()
	procs := make([]*rankProc, P)
	for r := range procs {
		procs[r] = startRank(t, r, addrs, n, seed, "-obs="+obsAddrs[r], "-min-steps=300",
			"-step-throttle=20ms", "-log-format=json", "-verify", fmt.Sprintf("-trace=%s/rank%d.jsonl", dir, r))
	}
	// Every rank must exit cleanly and leave a well-formed, non-empty
	// span trace behind.
	defer func() {
		for r, p := range procs {
			if err := p.cmd.Wait(); err != nil {
				t.Errorf("rank %d: %v", r, err)
				continue
			}
			f, err := os.Open(fmt.Sprintf("%s/rank%d.jsonl", dir, r))
			if err != nil {
				t.Errorf("rank %d trace: %v", r, err)
				continue
			}
			spans, err := obs.ReadJSONL(f)
			f.Close()
			if err != nil || len(spans) == 0 {
				t.Errorf("rank %d trace: %d spans, err %v", r, len(spans), err)
			}
		}
	}()

	agg := obs.NewHTTPAggregator(obsAddrs, 2*time.Second)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("aggregator never saw all ranks up with live step series")
		}
		agg.Scrape(context.Background())
		var buf bytes.Buffer
		if _, err := agg.WriteTo(&buf); err != nil {
			t.Fatalf("render merged metrics: %v", err)
		}
		flat, err := flatSamples(buf.Bytes())
		if err != nil {
			t.Fatalf("merged exposition does not parse: %v\n%s", err, buf.String())
		}
		if ok := checkMerged(t, flat, P); ok {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// flatSamples parses a Prometheus text exposition into name{labels} -> value.
func flatSamples(text []byte) (map[string]float64, error) {
	fams, err := obs.ParseFamilies(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	flat := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Samples {
			flat[s.Key()] = s.Value
		}
	}
	return flat, nil
}

// checkMerged reports whether the merged exposition shows the whole
// cluster live; it only fails the test for inconsistencies that should
// never appear (imbalance < 1).
func checkMerged(t *testing.T, flat map[string]float64, P int) bool {
	t.Helper()
	if flat["aa_cluster_ranks_up"] != float64(P) {
		return false
	}
	for r := 0; r < P; r++ {
		step, ok := flat[fmt.Sprintf(`aa_rank_step{rank="%d"}`, r)]
		if !ok || step <= 0 {
			return false
		}
		if _, ok := flat[fmt.Sprintf(`aa_rank_step_busy_seconds{rank="%d"}`, r)]; !ok {
			return false
		}
	}
	imb, ok := flat["aa_step_imbalance"]
	if !ok {
		return false
	}
	if imb < 1 {
		t.Fatalf("aa_step_imbalance = %g, want >= 1 (max/mean)", imb)
	}
	if _, ok := flat["aa_cluster_dirty_fraction"]; !ok {
		return false
	}
	return true
}
