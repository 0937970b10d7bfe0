package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"anytime/internal/change"
	"anytime/internal/core"
	"anytime/internal/gen"
	"anytime/internal/graph"
	"anytime/internal/rank"
	"anytime/internal/sssp"
	"anytime/internal/transport"
)

// freeAddrs reserves n loopback ports by listening on port 0 and closing.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

// tcpMesh joins n transport.TCP endpoints into a loopback mesh inside this
// process, one goroutine per rank as separate processes would.
func tcpMesh(n int) ([]transport.Transport, error) {
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	peers := make([]transport.Peer, n)
	for i, a := range addrs {
		peers[i] = transport.Peer{Rank: i, Addr: a}
	}
	ts := make([]transport.Transport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range peers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t, err := transport.NewTCP(peers, i, transport.TCPOptions{
				MeshTimeout: 10 * time.Second, ExchangeTimeout: 30 * time.Second})
			if err == nil {
				ts[i] = t
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			closeAll(ts)
			return nil, fmt.Errorf("tcp mesh: %w", err)
		}
	}
	return ts, nil
}

func inprocMesh(n int) []transport.Transport {
	ts := make([]transport.Transport, n)
	for i, t := range transport.NewInprocGroup(n) {
		ts[i] = t
	}
	return ts
}

func closeAll(ts []transport.Transport) {
	for _, t := range ts {
		if t != nil {
			t.Close()
		}
	}
}

// eachRank runs fn once per rank, concurrently, and returns the first error.
func eachRank(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

const (
	clusterRanks = 2
	// gathers is how often a cycle repeats the collective gather: one
	// takes milliseconds, and a handful per run is too few for a median.
	gathers = 5
)

// clusterTCP is the second runtime: two rank.Runners in this process over
// loopback TCP converge a BA graph (DD, IA and RC steps with real
// exchanges and votes), absorb two vertex batches that rank 0 ships to its
// peer inside the data exchange, and gather the distance matrix at rank 0.
// Every cycle runs on a graph and batches of its own.
type clusterTCP struct {
	env
	g      *graph.Graph
	events []change.Event
	mesh   []transport.Transport
	genS   float64
	batchS float64

	oracleS []time.Duration

	firstRank  [clusterRanks]rank.Stats
	firstWire  transport.Stats
	stepDur    []time.Duration
	absorbDur  []time.Duration
	convInproc time.Duration
}

type clusterRun struct {
	converge, absorb time.Duration
	gather           []time.Duration
	dist             [][]graph.Dist
	runners          [clusterRanks]*rank.Runner
}

func (w *clusterTCP) Setup() error {
	if err := w.generate(0); err != nil {
		return err
	}
	var err error
	w.mesh, err = tcpMesh(clusterRanks)
	return err
}

// generate makes cycle c's graph and its two batches.
func (w *clusterTCP) generate(c int) error {
	t0 := time.Now()
	g, err := gen.BarabasiAlbert(w.size.clusterN, 3, gen.Weights{}, w.derive(int64(100+c)))
	if err != nil {
		return err
	}
	w.g, w.events = g, nil
	w.genS = time.Since(t0).Seconds()
	t0 = time.Now()
	for i := 0; i < 2; i++ {
		b, err := gen.CommunityBatch(g, w.size.clusterBatch, 1.5, gen.Weights{}, w.derive(int64(1000+2*c+i)))
		if err != nil {
			return err
		}
		w.events = append(w.events, change.Event{Batch: b})
	}
	w.batchS = time.Since(t0).Seconds()
	return nil
}

// grown returns the workload's graph with its batches applied the way the
// engine applies them: new vertices take the next dense IDs in batch order.
func (w *clusterTCP) grown() (*graph.Graph, error) {
	g := w.g.Clone()
	for _, ev := range w.events {
		b := ev.Batch
		first := g.AddVertices(b.NumVertices)
		for _, e := range b.Internal {
			if err := g.AddEdge(first+int(e.A), first+int(e.B), e.Weight); err != nil {
				return nil, err
			}
		}
		for _, e := range b.External {
			if u, v := first+int(e.New), int(e.Existing); !g.HasEdge(u, v) {
				if err := g.AddEdge(u, v, e.Weight); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// run drives one whole operation over the given transports. Spans and
// step timings are recorded only when rec is the workload's own.
func (w *clusterTCP) run(ts []transport.Transport, traced bool) (*clusterRun, error) {
	rec, tracer := w.rec, w.obs
	if !traced {
		rec, tracer = nil, nil
	}
	graphs := make([]*graph.Graph, len(ts)) // every rank owns its copy, as separate processes do
	for i := range graphs {
		graphs[i] = w.g.Clone()
	}
	res := &clusterRun{}
	steps := func(op int32, i int) error {
		r := res.runners[i]
		for n := 0; n < maxSteps; n++ {
			sp := rec.beginProc(op, "rank.Runner.Step", i)
			ts := time.Now()
			more, err := r.Step()
			if traced && i == 0 {
				w.stepDur = append(w.stepDur, time.Since(ts))
			}
			rec.end(sp)
			if err != nil || !more {
				return err
			}
		}
		return fmt.Errorf("rank %d: no convergence after %d steps", i, maxSteps)
	}

	op := rec.begin(0, "bench.converge")
	t0 := time.Now()
	err := eachRank(len(ts), func(i int) error {
		sp := rec.beginProc(op, "rank.New", i)
		r, err := rank.New(ts[i], rank.Config{Graph: graphs[i], Seed: w.derive(1), Workers: 1, Obs: tracer})
		rec.end(sp)
		if err != nil {
			return err
		}
		res.runners[i] = r
		return steps(op, i)
	})
	res.converge = time.Since(t0)
	rec.end(op)
	if err != nil {
		return nil, err
	}

	op = rec.begin(0, "bench.absorb")
	t0 = time.Now()
	if err := res.runners[0].QueueEvents(w.events...); err != nil {
		return nil, err
	}
	err = eachRank(len(ts), func(i int) error { return steps(op, i) })
	res.absorb = time.Since(t0)
	rec.end(op)
	if err != nil {
		return nil, err
	}

	for k := 0; k < gathers && err == nil; k++ {
		op = rec.begin(0, "bench.answer")
		t0 = time.Now()
		err = eachRank(len(ts), func(i int) error {
			sp := rec.beginProc(op, "rank.Runner.GatherDistances", i)
			d, err := res.runners[i].GatherDistances()
			rec.end(sp)
			if i == 0 {
				res.dist = d
			}
			return err
		})
		res.gather = append(res.gather, time.Since(t0))
		rec.end(op)
	}
	return res, err
}

func (w *clusterTCP) Cycle(c int, m *meter) error {
	if c > 0 {
		var err error
		m.untimed(func() {
			if err = w.generate(c); err == nil {
				w.mesh, err = tcpMesh(clusterRanks)
			}
		})
		if err != nil {
			return err
		}
	}
	res, err := w.run(w.mesh, true)
	if err != nil {
		return err
	}
	m.update(res.converge)
	for _, d := range res.gather {
		m.answer(d)
	}
	w.absorbDur = append(w.absorbDur, res.absorb)
	m.markRSS()

	var verr error
	m.untimed(func() {
		if c == 0 {
			for i, r := range res.runners {
				w.firstRank[i] = r.Stats()
			}
			w.firstWire = w.mesh[0].Stats()
		}
		closeAll(w.mesh) // a mesh carries one run; the next cycle dials a new one
		w.mesh = nil
		t0 := time.Now()
		g, err := w.grown()
		if err != nil {
			verr = err
			return
		}
		want := sssp.APSP(g)
		w.oracleS = append(w.oracleS, time.Since(t0))
		if !sameMatrix(res.dist, want) {
			m.fail(2, "cluster_tcp cycle %d: gathered distances differ from sssp.APSP of the grown graph", c)
		}
		for i, r := range res.runners {
			if r.Stats().EventsApplied != len(w.events) {
				m.fail(1, "cluster_tcp cycle %d: rank %d applied %d events, want %d", c, i, r.Stats().EventsApplied, len(w.events))
			}
		}
		if c == 0 {
			verr = w.checkEngine(m, want)
		}
	})
	return verr
}

// checkEngine absorbs the same batches with the single-process Engine and
// compares it with the oracle the Runners were compared with: Runner ==
// Engine == sssp.APSP. Once per run; the Engine takes as long as a cycle.
func (w *clusterTCP) checkEngine(m *meter, want [][]graph.Dist) error {
	e, err := core.New(w.g, core.Options{P: clusterRanks, Workers: 1, Seed: w.derive(1)})
	if err != nil {
		return err
	}
	e.Run()
	for _, ev := range w.events {
		if err := e.QueueBatch(ev.Batch); err != nil {
			return err
		}
	}
	e.Run()
	m.attempted++
	if !e.Converged() || !sameMatrix(e.Distances(), want) {
		m.fail(1, "cluster_tcp: the Engine's distances differ from sssp.APSP of the grown graph")
	}
	return nil
}

func (w *clusterTCP) Layers(m *meter, b *budget, out map[string]float64) {
	per := func(keys ...string) float64 { return b.perOp(len(m.updates), keys...) }
	out["gen.graph_s"] = w.genS
	out["gen.batch_s"] = w.batchS
	out["partition.dd_s"] = per("rank.New") // DD, the checksum broadcast and the local IA; the runner emits no dd/ia spans
	out["core.ship_s"] = per("rc-ship")
	out["core.relax_s"] = per("rc-relax")
	out["rank.wait_s"] = per("rc-exchange", "rc-step", "rank.Runner.Step") // exchange wait, vote and decision broadcast
	out["rank.gather_s"] = quantile(m.answers, 0.5).Seconds()
	out["rank.absorb_s"] = quantile(w.absorbDur, 0.5).Seconds()
	out["rank.step_p50_s"] = quantile(w.stepDur, 0.5).Seconds()
	for _, s := range w.firstRank {
		out["rank.relax_ops"] += float64(s.RelaxOps)
		out["rank.ia_ops"] += float64(s.IAOps)
	}
	out["rank.events_applied"] = float64(w.firstRank[0].EventsApplied)
	out["transport.bytes_sent"] = float64(w.firstWire.BytesSent)
	out["transport.frames_sent"] = float64(w.firstWire.FramesSent)
	out["transport.exchanges"] = float64(w.firstWire.Exchanges)
	out["transport.retries"] = float64(w.firstWire.RetryAttempts)
	out["transport.crc_errors"] = float64(w.firstWire.CRCErrors)
	out["cluster.shipped_mb"] = float64(w.firstWire.BytesSent+w.firstWire.BytesRecv) / 1e6
	out["centrality.oracle_s"] = quantile(w.oracleS, 0.5).Seconds()

	// The same operation over the in-process transport: what is left of
	// the difference is what framing, CRC and the sockets cost here.
	mesh := inprocMesh(clusterRanks)
	res, err := w.run(mesh, false)
	closeAll(mesh)
	if err != nil {
		m.fail(1, "cluster_tcp over inproc: %v", err)
		return
	}
	if g, err := w.grown(); err != nil || !sameMatrix(res.dist, sssp.APSP(g)) {
		m.fail(1, "cluster_tcp over inproc: distances differ from sssp.APSP of the grown graph")
	}
	out["transport.tcp_minus_inproc_s"] = (quantile(m.updates, 0.5) - res.converge).Seconds()
}

func (w *clusterTCP) Close() {
	closeAll(w.mesh)
	w.mesh = nil
}
