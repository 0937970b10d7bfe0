package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"anytime/internal/stream"
)

func newTestServer(t *testing.T) (*Server, *Client, func()) {
	t.Helper()
	base := testBase(t, 60, 13)
	srv, err := New(testEngine(t, base, 2, 13), Config{TopKIndex: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	c := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
	return srv, c, func() {
		ts.Close()
		srv.Close()
	}
}

func TestHTTPEndpoints(t *testing.T) {
	srv, c, shutdown := newTestServer(t)
	defer shutdown()
	ctx := context.Background()
	// The endpoint comparisons below read the view twice; they only agree
	// once the driver has stopped publishing new snapshots.
	waitFor(t, "convergence", func() bool { return srv.View().Converged })

	// healthz
	resp, err := c.HTTPClient.Get(c.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// snapshot metadata
	m0, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m0.Version < 1 || m0.Vertices != 60 {
		t.Fatalf("snapshot meta = %+v", m0)
	}

	// topk: within and beyond the index, descending
	tk, err := c.TopK(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tk.K != 5 || len(tk.Results) != 5 {
		t.Fatalf("topk = %+v", tk)
	}
	for i := 1; i < len(tk.Results); i++ {
		if tk.Results[i-1].Closeness < tk.Results[i].Closeness {
			t.Fatalf("topk not descending: %+v", tk.Results)
		}
	}
	big, err := c.TopK(ctx, 1000) // k > n clamps to n
	if err != nil {
		t.Fatal(err)
	}
	if big.K != 60 {
		t.Fatalf("clamped topk K = %d, want 60", big.K)
	}

	// closeness of the top vertex agrees between endpoints
	cl, err := c.Closeness(ctx, tk.Results[0].Vertex)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Closeness != tk.Results[0].Closeness {
		t.Fatalf("closeness %g != topk %g", cl.Closeness, tk.Results[0].Closeness)
	}
	if cl.Eccentricity <= 0 {
		t.Fatalf("eccentricity %d on a connected graph", cl.Eccentricity)
	}

	// error paths
	for path, want := range map[string]int{
		"/v1/topk?k=0":        http.StatusBadRequest,
		"/v1/topk?k=bogus":    http.StatusBadRequest,
		"/v1/closeness/bogus": http.StatusBadRequest,
		"/v1/closeness/99999": http.StatusNotFound,
		"/v1/closeness/-1":    http.StatusNotFound,
	} {
		resp, err := c.HTTPClient.Get(c.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}

	// POST invalid JSON and invalid events
	resp, err = c.HTTPClient.Post(c.BaseURL+"/v1/events", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed POST = %d", resp.StatusCode)
	}
	if _, err := c.PostEvents(ctx, []stream.Event{{Kind: stream.AddVertex, U: 999}}); err == nil {
		t.Fatal("non-dense join admitted over HTTP")
	}

	// POST a valid batch: one join with an anchor edge, then wait for it
	// to be ingested and visible in a later snapshot version.
	ack, err := c.PostEvents(ctx, []stream.Event{
		{Kind: stream.AddVertex, U: 60},
		{Kind: stream.AddEdge, U: 60, V: 0, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Admitted != 2 {
		t.Fatalf("admitted %d events, want 2", ack.Admitted)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, err := c.Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.Vertices == 61 && m.Converged {
			if m.Version <= m0.Version {
				t.Fatalf("version did not advance: %d -> %d", m0.Version, m.Version)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("join never became visible: %+v", m)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// metrics: required keys present and sane
	mm, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"aa_snapshot_version", "aa_engine_rc_steps_total", "aa_queue_depth",
		"aa_queries_served_total", "aa_events_admitted_total", "aa_publishes_total",
		"aa_step_imbalance", `aa_proc_rows{proc="0"}`,
		`aa_events_rejected_total{reason="backpressure"}`,
		`aa_events_rejected_total{reason="invalid"}`,
	} {
		if _, ok := mm[key]; !ok {
			t.Fatalf("metrics missing %q: %v", key, mm)
		}
	}
	if mm["aa_queries_served_total"] == 0 || mm["aa_events_admitted_total"] != 2 || mm["aa_snapshot_version"] < 2 {
		t.Fatalf("metrics = %v", mm)
	}

	// graceful close: reads keep working against the last view, admission
	// turns into 503 (ErrClosed through the client).
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TopK(ctx, 3); err != nil {
		t.Fatalf("read after close: %v", err)
	}
	_, err = c.PostEvents(ctx, []stream.Event{{Kind: stream.AddVertex, U: 61}})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("PostEvents after close = %v, want ErrClosed", err)
	}
}
