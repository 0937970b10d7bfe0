package rank

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"anytime/internal/change"
	"anytime/internal/gen"
	"anytime/internal/graph"
	"anytime/internal/obs"
	"anytime/internal/sssp"
	"anytime/internal/transport"
)

// cliOptions holds the parsed aacluster flags.
type cliOptions struct {
	rank              int
	peers, manifest   string
	launch, supervise bool
	p                 int

	n       int
	seed    int64
	workers int

	calibrate bool
	rounds    int
	calOut    string
	verify    bool
	out       string
	metrics   string

	obs, trace, traceDir, logFormat string
	pprof                           bool

	hbInterval, rejoinWait, stepThrottle time.Duration
	shardDir                             string
	minSteps                             int
	rejoin                               bool
	events                               int
}

// Main is the aacluster command and returns its exit code. It runs the
// anytime-anywhere engine as one rank of a multi-process run over the TCP
// transport: every rank builds the same deterministic graph (same -n and
// -seed), partitions it identically (checksum-verified), computes its
// local APSP and recombines to convergence over the wire. Rank 0 can check
// the gathered matrix against the exact oracle (-verify) and write it as
// text (-out).
//
// Join an existing mesh, one invocation per rank:
//
//	aacluster -rank 0 -peers 127.0.0.1:9000,127.0.0.1:9001 -n 2000
//	aacluster -rank 1 -peers 127.0.0.1:9000,127.0.0.1:9001 -n 2000
//
// or let one invocation spawn the whole mesh as child processes of the
// running executable, each of which runs Main again as one rank:
//
//	aacluster -launch -p 3 -n 2000 -verify
//
// A manifest file (lines of "<rank> <host:port> [obs-host:port]", #
// comments) replaces -peers; the optional third column sets the rank's
// -obs address, where it serves Prometheus /metrics, /trace.jsonl and
// (with -pprof) /debug/pprof. In launch mode obs ports are assigned
// automatically and -metrics serves the merged cluster view: every
// per-rank series labeled rank="i" plus the cross-rank series, tolerant of
// ranks dying mid-scrape:
//
//	aacluster -launch -p 3 -n 2000 -metrics :9090 -trace-dir ./traces
//
// -calibrate measures the transport's LogP parameters (o, g, L) with
// ping-pong and burst round trips between ranks 0 and 1 and prints the
// model row to feed back into the simulator:
//
//	aacluster -launch -p 2 -calibrate
func Main(args []string, stdout, stderr io.Writer) int {
	var o cliOptions
	fs := flag.NewFlagSet("aacluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&o.rank, "rank", -1, "this process's rank (0..P-1)")
	fs.StringVar(&o.peers, "peers", "", "comma-separated addresses, rank = position")
	fs.StringVar(&o.manifest, "manifest", "", "manifest file: lines of \"<rank> <host:port> [obs-host:port]\"")
	fs.BoolVar(&o.launch, "launch", false, "spawn the whole mesh locally as child processes")
	fs.IntVar(&o.p, "p", 3, "ranks to launch (with -launch)")

	fs.IntVar(&o.n, "n", 2000, "graph size")
	fs.Int64Var(&o.seed, "seed", 1, "graph + partition seed")
	fs.IntVar(&o.workers, "workers", 2, "worker goroutines per rank")

	fs.BoolVar(&o.calibrate, "calibrate", false, "measure o/g/L over the real transport and exit")
	fs.IntVar(&o.rounds, "rounds", 32, "calibration ping-pong rounds")
	fs.StringVar(&o.calOut, "calibrate-out", "", "rank 0: write the calibration JSON here (feed to aaexperiments -model)")
	fs.BoolVar(&o.verify, "verify", false, "rank 0: check the result against the exact oracle")
	fs.StringVar(&o.out, "out", "", "rank 0: write the distance matrix (text) here")
	fs.StringVar(&o.metrics, "metrics", "", "with -launch: serve the merged cluster metrics on this address")

	fs.StringVar(&o.obs, "obs", "", "serve this rank's obs plane (/metrics, /trace.jsonl) on this address (auto-assigned with -launch; manifest column 3 also sets it)")
	fs.BoolVar(&o.pprof, "pprof", false, "expose /debug/pprof on the rank obs server")
	fs.StringVar(&o.trace, "trace", "", "write this rank's span trace (JSONL) here, flushed periodically, on exit, and on SIGTERM")
	fs.StringVar(&o.traceDir, "trace-dir", "", "with -launch: write per-rank traces into this directory (rank<i>.jsonl; merge with aatrace -merge)")
	fs.StringVar(&o.logFormat, "log-format", "", "structured log format: text or json (default: no structured logs)")

	fs.DurationVar(&o.hbInterval, "hb-interval", 500*time.Millisecond, "heartbeat interval; a peer is down after 4 silent intervals")
	fs.StringVar(&o.shardDir, "shard-dir", "", "write this rank's recovery shard here after every RC step")
	fs.DurationVar(&o.rejoinWait, "rejoin-wait", 0, "how long survivors idle in degraded mode waiting for a rejoin")
	fs.IntVar(&o.minSteps, "min-steps", 0, "force at least this many RC steps before convergence may stop")
	fs.DurationVar(&o.stepThrottle, "step-throttle", 0, "sleep this long after every RC step")
	fs.BoolVar(&o.rejoin, "rejoin", false, "join as a restarted rank: rejoin the running mesh and restore from the recovery shard")
	fs.BoolVar(&o.supervise, "supervise", false, "with -launch: relaunch a crashed rank (with -rejoin) after backoff")
	fs.IntVar(&o.events, "events", 0, "rank 0: stream a dynamic batch of this many vertices, then an edge-add event, into the run")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "aacluster: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.launch {
		return launchMesh(fs, o, stdout, stderr)
	}
	if err := runRank(o, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "aacluster: %v\n", err)
		return 1
	}
	return 0
}

// runRank is one rank process: join the mesh, run to convergence (or
// calibrate), print the summary line and take part in the gather rank 0
// asks for.
func runRank(o cliOptions, stdout, stderr io.Writer) error {
	peers, manifestObs, err := loadPeers(o.peers, o.manifest)
	if err != nil {
		return err
	}
	if o.rank < 0 || o.rank >= len(peers) {
		return fmt.Errorf("-rank %d out of range for %d peers", o.rank, len(peers))
	}
	join := transport.NewTCP
	if o.rejoin {
		join = transport.RejoinTCP
	}
	tr, err := join(peers, o.rank, transport.TCPOptions{HeartbeatInterval: o.hbInterval})
	if err != nil {
		return fmt.Errorf("joining mesh: %w", err)
	}
	defer tr.Close()

	var logger *slog.Logger
	if o.logFormat != "" {
		if logger, err = obs.NewLogger(stderr, o.logFormat); err != nil {
			return err
		}
	}
	obsAddr := o.obs
	if obsAddr == "" && o.rank < len(manifestObs) {
		obsAddr = manifestObs[o.rank]
	}
	var tracer *obs.Tracer
	if o.trace != "" || obsAddr != "" {
		tracer = obs.NewTracer(0)
	}
	flushTrace := func() {
		if o.trace == "" {
			return
		}
		if err := obs.WriteFileAtomic(o.trace, func(w io.Writer) error { return obs.WriteJSONL(w, tracer.Spans()) }); err != nil {
			fmt.Fprintf(stderr, "aacluster: trace flush: %v\n", err)
		}
	}
	if o.trace != "" {
		// The supervised-shutdown contract: a SIGTERM (what the launch
		// parent forwards on Ctrl-C) still finalizes the trace atomically.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
		go func() {
			<-sig
			flushTrace()
			os.Exit(143)
		}()
	}
	var reg *obs.Registry
	if obsAddr != "" {
		reg = obs.NewRegistry()
		transport.RegisterMetrics(reg, tr, "tcp")
		srv, err := ServeObs(obsAddr, reg, tracer, o.pprof)
		if err != nil {
			return fmt.Errorf("obs server: %w", err)
		}
		defer srv.Close()
		if logger != nil {
			logger.Info("obs server up", "rank", tr.Rank(), "addr", srv.Addr())
		}
	}

	if o.calibrate {
		return calibrate(tr, o, stdout)
	}

	g, err := buildGraph(o.n, o.seed)
	if err != nil {
		return err
	}
	cfg := Config{
		Graph: g, Seed: o.seed, Workers: o.workers, ShardDir: o.shardDir,
		MinSteps: o.minSteps, StepThrottle: o.stepThrottle, RejoinWait: o.rejoinWait,
		Obs: tracer, Log: logger,
	}
	if o.trace != "" {
		cfg.StepHook = func(tm Telemetry) {
			if tm.Step%32 == 0 {
				flushTrace()
			}
		}
	}
	start := time.Now()
	begin := New
	if o.rejoin {
		begin = Rejoin
	}
	r, err := begin(tr, cfg)
	if err != nil {
		return err
	}
	if reg != nil {
		RegisterMetrics(reg, r)
	}
	if !o.rejoin && tr.Rank() == 0 && o.events > 0 {
		if err := r.QueueEvents(demoEvents(g.NumVertices(), o.events, o.seed)...); err != nil {
			return err
		}
	}
	setup := time.Since(start)
	nsteps, err := r.Run()
	if err != nil {
		return err
	}
	flushTrace()
	elapsed := time.Since(start)
	// The summary line ends in key=value fields (space-free values) that
	// scripts and the multi-process tests parse.
	st, ts := r.Stats(), tr.Stats()
	fmt.Fprintf(stdout, "rank %d/%d: %d steps in %v (setup %v); sent %d msgs / %d B, recv %d msgs / %d B; ia=%d relax=%d reships=%d events=%d reconnects=%d retries=%d converged=%t down-seen=%s degraded=%d rejoins=%d\n",
		tr.Rank(), tr.Size(), nsteps, elapsed.Round(time.Millisecond), setup.Round(time.Millisecond),
		ts.MessagesSent, ts.BytesSent, ts.MessagesRecv, ts.BytesRecv,
		st.IAOps, st.RelaxOps, st.Reships, st.EventsApplied, ts.Reconnects, ts.RetryAttempts,
		r.Converged(), strings.ReplaceAll(fmt.Sprint(r.DownSeen()), " ", ","), st.DegradedConvergences, st.Rejoins)
	if r.Degraded() {
		fmt.Fprintf(stdout, "rank %d: WARNING: stopped in degraded mode, ranks %v still down — distances exclude their contribution\n",
			tr.Rank(), r.DownProcs())
	}

	want, err := gatherWanted(tr, tr.Rank() == 0 && (o.verify || o.out != ""))
	if err != nil || !want {
		return err
	}
	// A degraded stop fails here: the down ranks' rows are missing.
	dist, err := r.GatherDistances()
	if err != nil || tr.Rank() != 0 {
		return err
	}
	if o.verify {
		if err := verifyOracle(g, dist); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "rank 0: verified %d x %d distances against the exact oracle\n", len(dist), len(dist))
	}
	if o.out != "" {
		if err := writeDistances(o.out, dist); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "rank 0: wrote %s\n", o.out)
	}
	return nil
}

// gatherWanted broadcasts rank 0's decision whether to gather the matrix
// and returns it on every rank. GatherDistances is a collective, so a rank
// joined without -verify/-out must still take part when rank 0 wants it.
func gatherWanted(t transport.Transport, want bool) (bool, error) {
	b := byte(0)
	if want {
		b = 1
	}
	msg, err := t.Broadcast(0, transport.Message{Tag: transport.TagControl, Bytes: 1, Payload: []byte{b}})
	if err != nil || t.Rank() == 0 {
		return want, err
	}
	p, err := msg.Control(1)
	if err != nil {
		return false, fmt.Errorf("rank %d: gather decision: %w", t.Rank(), err)
	}
	return p[0] != 0, nil
}

// calibrate measures the transport's LogP parameters; rank 0 prints the
// model row and optionally saves the calibration JSON.
func calibrate(tr *transport.TCP, o cliOptions, stdout io.Writer) error {
	cal, err := transport.Calibrate(tr, o.rounds)
	if err != nil || tr.Rank() != 0 {
		return err
	}
	fmt.Fprintln(stdout, cal.String())
	model := cal.Model(tr.Size())
	fmt.Fprintf(stdout, "model: L=%v o=%v g=%v/B P=%d\n", model.L, model.O, model.G, model.P)
	if o.calOut == "" {
		return nil
	}
	if err := transport.SaveCalibration(o.calOut, cal); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", o.calOut)
	return nil
}

// buildGraph is the deterministic input every rank builds from -n and
// -seed: a connected Barabási–Albert graph (attachment degree 2, weights
// 1..4).
func buildGraph(n int, seed int64) (*graph.Graph, error) {
	g, err := gen.BarabasiAlbert(n, 2, gen.Weights{Min: 1, Max: 4}, seed)
	if err != nil {
		return nil, err
	}
	gen.Connectify(g, seed)
	return g, nil
}

// demoEvents is the -events stream rank 0 queues: a batch of k new
// vertices, each wired to a deterministic existing vertex and chained to
// its batch predecessor (internal, external and cross-batch edges), then
// an edge-add event between existing vertices, so both event kinds cross
// the wire.
func demoEvents(n, k int, seed int64) []change.Event {
	b := &change.VertexBatch{NumVertices: k}
	for i := 0; i < k; i++ {
		exist := int32((seed + int64(i)*2654435761) % int64(n))
		if exist < 0 {
			exist += int32(n)
		}
		b.External = append(b.External, change.ExternalEdge{New: int32(i), Existing: exist, Weight: graph.Weight(1 + i%4)})
		if i > 0 {
			b.Internal = append(b.Internal, change.InternalEdge{A: int32(i - 1), B: int32(i), Weight: graph.Weight(1 + (i+1)%4)})
		}
	}
	adds := []change.EdgeAdd{{U: 0, V: int32(n - 1), Weight: 1}, {U: int32(n / 3), V: int32(2 * n / 3), Weight: 2}}
	return []change.Event{{Batch: b}, {EdgeAdds: adds}}
}

// verifyOracle checks dist cell for cell against the exact APSP of g.
func verifyOracle(g *graph.Graph, dist [][]graph.Dist) error {
	want := sssp.APSP(g)
	if len(dist) != len(want) {
		return fmt.Errorf("verify: %d rows, oracle %d", len(dist), len(want))
	}
	for v := range want {
		for u := range want[v] {
			if dist[v][u] != want[v][u] {
				return fmt.Errorf("verify: dist[%d][%d] = %d, oracle %d", v, u, dist[v][u], want[v][u])
			}
		}
	}
	return nil
}

// writeDistances writes the matrix as text: one row per line, cells
// separated by spaces, "inf" for unreachable pairs.
func writeDistances(path string, dist [][]graph.Dist) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, row := range dist {
		for u, d := range row {
			if u > 0 {
				w.WriteByte(' ')
			}
			if d == graph.InfDist {
				w.WriteString("inf")
			} else {
				w.WriteString(strconv.FormatUint(uint64(d), 10))
			}
		}
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
