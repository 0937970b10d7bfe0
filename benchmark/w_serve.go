package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"time"

	"anytime/internal/centrality"
	"anytime/internal/core"
	"anytime/internal/gen"
	"anytime/internal/graph"
	"anytime/internal/serve"
	"anytime/internal/sssp"
	"anytime/internal/stream"
)

const (
	queryLimit   = 50 * time.Millisecond // a query slower than this misses the limit
	pollInterval = 2 * time.Millisecond
)

// serveMixed is reads beside writes on the published-snapshot path: a
// serve.Server behind an httptest listener, its engine warm-started at P=1
// so that one of the two cores is left for HTTP and the load generator.
//
// Connection 1 writes: every period a batch of joins (two attach edges
// each) is due; it is posted and /v1/snapshot is polled until the joins
// are visible, and the next batch is never sent before the previous one is
// visible (a closed loop, paced). Connection 2 reads in an open loop at a
// fixed rate, each query timed from when it was due: 75 % topk(10), 20 %
// closeness(v), 5 % topk(256), which is beyond the precomputed index.
//
// Every cycle serves a graph of its own from a fresh server: what a batch
// costs depends on the graph, and a server that kept growing would make a
// batch's cost depend on how many came before it.
type serveMixed struct {
	env
	g       *graph.Graph
	engine  *core.Engine
	srv     *serve.Server
	http    *httptest.Server
	writer  *serve.Client
	reader  *serve.Client
	batches [][]stream.Event // of the current cycle, one per period
	queries *rand.Rand
	genS    float64
	warmS   float64

	post, age, late, beyond []time.Duration
	limitMiss, asked        int
	depthMax                int
	oracleS                 []time.Duration
	first                   core.Metrics // engine counters at the end of cycle 0
	publishes, rejected     int64
}

func (w *serveMixed) Setup() error {
	w.queries = rand.New(rand.NewSource(w.derive(300)))
	return w.start(0)
}

// start generates cycle c's graph and batches and brings a server up on it.
func (w *serveMixed) start(c int) error {
	t0 := time.Now()
	g, err := gen.BarabasiAlbert(w.size.serveN, 3, gen.Weights{}, w.derive(int64(100+c)))
	if err != nil {
		return err
	}
	w.g, w.batches = g, nil
	rng := rand.New(rand.NewSource(w.derive(int64(1000 + c))))
	next := int32(g.NumVertices())
	for i := 0; i < w.size.servePeriods; i++ {
		var evs []stream.Event
		for j := 0; j < w.size.serveJoins; j++ {
			evs = append(evs, stream.Event{Kind: stream.AddVertex, U: next})
			a := rng.Int31n(next)
			b := (a + 1 + rng.Int31n(next-1)) % next
			evs = append(evs, stream.Event{Kind: stream.AddEdge, U: next, V: a, W: 1},
				stream.Event{Kind: stream.AddEdge, U: next, V: b, W: 1})
			next++
		}
		w.batches = append(w.batches, evs)
	}
	w.genS = time.Since(t0).Seconds()

	t0 = time.Now()
	w.engine, err = core.NewConverged(g, core.Options{P: 1, Workers: 1, Seed: w.derive(int64(500 + c)), Obs: w.obs})
	w.warmS = time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	if w.srv, err = serve.New(w.engine, serve.Config{}); err != nil {
		return err
	}
	w.http = httptest.NewServer(w.srv.Handler())
	client := func() *serve.Client {
		return &serve.Client{BaseURL: w.http.URL, Timeout: 2 * time.Second, MaxRetries: -1,
			HTTPClient: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
	}
	w.writer, w.reader = client(), client()
	return nil
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func (w *serveMixed) Cycle(c int, m *meter) error {
	if c > 0 {
		var err error
		m.untimed(func() { err = w.start(c) })
		if err != nil {
			return err
		}
	}
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	var visible, post, age []time.Duration
	var writeErr error
	depthMax := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p, evs := range w.batches {
			want := w.g.NumVertices() + (p+1)*w.size.serveJoins
			due := start.Add(time.Duration(p) * w.size.servePeriod)
			sleepUntil(due)
			op := w.rec.begin(0, "bench.visible")
			sp := w.rec.begin(op, "serve.PostEvents")
			t0 := time.Now()
			_, err := w.writer.PostEvents(ctx, evs)
			post = append(post, time.Since(t0))
			w.rec.end(sp)
			if err != nil {
				writeErr = fmt.Errorf("posting batch %d: %w", p, err)
				return
			}
			sp = w.rec.begin(op, "serve.poll")
			for {
				meta, err := w.writer.Snapshot(ctx)
				if err != nil {
					writeErr = fmt.Errorf("polling /v1/snapshot: %w", err)
					return
				}
				depthMax = max(depthMax, meta.QueueDepth)
				age = append(age, time.Since(time.Unix(0, meta.PublishedUnix)))
				if meta.Vertices >= want {
					break
				}
				if time.Since(due) > 10*time.Second {
					writeErr = fmt.Errorf("batch %d not visible after 10 s", p)
					return
				}
				time.Sleep(pollInterval)
			}
			w.rec.end(sp)
			visible = append(visible, time.Since(due))
			w.rec.end(op)
		}
	}()

	var answers, late, beyond []time.Duration
	queryErrs := 0
	n := int(float64(w.size.servePeriods) * w.size.servePeriod.Seconds() * float64(w.size.serveQPS))
	for j := 0; j < n; j++ {
		due := start.Add(time.Duration(j) * time.Second / time.Duration(w.size.serveQPS))
		sleepUntil(due)
		late = append(late, max(0, time.Since(due)))
		var err error
		kind := w.queries.Intn(100)
		switch {
		case kind < 75:
			_, err = w.reader.TopK(ctx, 10)
		case kind < 95:
			_, err = w.reader.Closeness(ctx, w.queries.Intn(w.g.NumVertices()))
		default:
			_, err = w.reader.TopK(ctx, 256)
		}
		d := time.Since(due)
		if err != nil {
			queryErrs++
			continue
		}
		answers = append(answers, d)
		if kind >= 95 {
			beyond = append(beyond, d-late[len(late)-1])
		}
		if d > queryLimit {
			w.limitMiss++
		}
	}
	wg.Wait()
	w.asked += n
	for _, d := range visible {
		m.update(d)
	}
	for _, d := range answers {
		m.answer(d)
	}
	w.post = append(w.post, post...)
	w.age = append(w.age, age...)
	w.late = append(w.late, late...)
	w.beyond = append(w.beyond, beyond...)
	w.depthMax = max(w.depthMax, depthMax)
	if queryErrs > 0 {
		m.attempted += queryErrs
		m.fail(queryErrs, "serve_mixed cycle %d: %d queries failed", c, queryErrs)
	}
	if writeErr != nil {
		return writeErr
	}
	m.markRSS()
	var err error
	m.untimed(func() { err = w.check(c, m) })
	return err
}

// check drains the server and compares what it serves with the oracle of
// the independently grown graph: /v1/topk after convergence, then, once the
// server has handed the engine back, the distance matrix bit for bit.
func (w *serveMixed) check(c int, m *meter) error {
	ctx := context.Background()
	want, err := stream.GrownGraph(w.g, &stream.Stream{BaseN: w.g.NumVertices(), Events: slices.Concat(w.batches...)})
	if err != nil {
		return err
	}
	t0 := time.Now()
	dist := sssp.APSP(want)
	wantTop := centrality.TopK(oracleCloseness(dist), 10)
	w.oracleS = append(w.oracleS, time.Since(t0))

	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(pollInterval) {
		meta, err := w.writer.Snapshot(ctx)
		if err != nil {
			return err
		}
		if meta.Converged && meta.QueueDepth == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("serve_mixed: server did not drain")
		}
	}
	top, err := w.reader.TopK(ctx, 10)
	if err != nil {
		return err
	}
	var got []int
	for _, r := range top.Results {
		got = append(got, r.Vertex)
	}
	m.attempted++
	if !top.Converged || !slices.Equal(got, wantTop) {
		m.fail(1, "serve_mixed cycle %d: /v1/topk %v differs from the oracle's %v", c, got, wantTop)
	}
	if n := w.srv.Counters().EventsRejected(); n > 0 {
		m.fail(1, "serve_mixed cycle %d: %d events rejected", c, n)
	}
	w.shutdown()
	m.attempted++
	if !sameMatrix(w.engine.Distances(), dist) {
		m.fail(1, "serve_mixed cycle %d: drained engine's distances differ from sssp.APSP of the grown graph", c)
	}
	if c == 0 {
		w.first = w.engine.Metrics()
	}
	w.publishes += w.srv.Counters().Publishes.Load()
	w.rejected += w.srv.Counters().EventsRejectedBackpressure.Load()
	return nil
}

func (w *serveMixed) shutdown() {
	if w.http != nil {
		w.http.Close()
		w.http = nil
		w.srv.Close()
		w.writer.HTTPClient.CloseIdleConnections()
		w.reader.HTTPClient.CloseIdleConnections()
	}
}

func (w *serveMixed) Layers(m *meter, b *budget, out map[string]float64) {
	spanLayers(b, len(m.updates), out)
	out["gen.graph_s"] = w.genS
	out["sssp.ia_s"] = w.warmS
	out["serve.admit_p50_us"] = float64(quantile(w.post, 0.5)) / float64(time.Microsecond)
	out["serve.publishes"] = float64(w.publishes)
	out["serve.queue_depth_max"] = float64(w.depthMax)
	out["serve.rejected_backpressure"] = float64(w.rejected)
	out["serve.topk_beyond_index_ms"] = ms(quantile(w.beyond, 0.5))
	out["serve.snapshot_age_p50_ms"] = ms(quantile(w.age, 0.5))
	out["serve.gen_late_p99_ms"] = ms(quantile(w.late, 0.99))
	out["serve.query_p99_ms"] = ms(quantile(m.answers, 0.99))
	out["serve.limit_miss_share"] = float64(w.limitMiss) / float64(w.asked)
	out["centrality.oracle_s"] = quantile(w.oracleS, 0.5).Seconds()
	mt := w.first
	out["core.steps"] = float64(mt.RCSteps)
	out["core.rc_ops"] = float64(mt.RCOps)
	out["core.change_ops"] = float64(mt.ChangeOps)
	out["cluster.virt_s"] = mt.VirtualTime.Seconds()

	const loads = 200000
	t0 := time.Now()
	var sink uint64
	for i := 0; i < loads; i++ {
		sink += w.srv.View().Version
	}
	out["serve.view_load_ns"] = float64(time.Since(t0)) / loads
	if sink == 0 {
		m.fail(1, "serve_mixed: View never published")
	}
}

func (w *serveMixed) Close() { w.shutdown() }
