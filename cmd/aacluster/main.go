// Command aacluster runs the anytime-anywhere engine as N real OS
// processes, one rank per process, over the TCP transport.
//
// Every process builds the same deterministic graph (same -n/-m/-seed),
// partitions it identically (checksum-verified), computes its local APSP,
// and recombines to convergence over the wire. Rank 0 can dump the full
// distance matrix and verify it against the exact in-process oracle.
//
// Join an existing mesh (one invocation per rank):
//
//	aacluster -rank 0 -peers 127.0.0.1:9000,127.0.0.1:9001 -n 2000
//	aacluster -rank 1 -peers 127.0.0.1:9000,127.0.0.1:9001 -n 2000
//
// Or let one invocation launch the whole mesh locally:
//
//	aacluster -launch -p 3 -n 2000 -verify
//
// A manifest file (lines of "<rank> <host:port> [obs-host:port]", #
// comments) replaces -peers for static deployments; the optional third
// column declares the rank's observability port (equivalent to -obs):
//
//	aacluster -rank 2 -manifest cluster.manifest -n 50000
//
// Every rank can serve its own observability plane — Prometheus /metrics,
// /trace.jsonl, and (with -pprof) /debug/pprof — on -obs. In launch mode
// obs ports are assigned automatically and -metrics serves the *merged*
// cluster view instead: every per-rank series re-labeled with rank="i"
// plus computed cross-rank series (aa_cluster_ranks_up, aa_step_imbalance,
// outage-episode counters), tolerant of ranks dying mid-scrape:
//
//	aacluster -launch 3 -n 2000 -metrics :9090 -trace-dir ./traces
//
// The calibrate mode measures the real transport's LogP parameters
// (o, g, L) with ping-pong and burst round trips between ranks 0 and 1
// and prints the model row to feed back into the simulator:
//
//	aacluster -launch -p 2 -calibrate
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"anytime/internal/change"
	"anytime/internal/gen"
	"anytime/internal/graph"
	"anytime/internal/obs"
	"anytime/internal/rank"
	"anytime/internal/sssp"
	"anytime/internal/transport"
)

func main() {
	var (
		rankID    = flag.Int("rank", -1, "this process's rank (0..P-1)")
		peersFlag = flag.String("peers", "", "comma-separated addresses, rank = position")
		manifest  = flag.String("manifest", "", "manifest file: lines of \"<rank> <host:port>\"")
		launch    = flag.Bool("launch", false, "spawn the whole mesh locally as child processes")
		procs     = flag.Int("p", 3, "ranks to launch (with -launch)")

		n       = flag.Int("n", 2000, "graph size")
		m       = flag.Int("m", 2, "scale-free attachment degree")
		seed    = flag.Int64("seed", 1, "graph + partition seed")
		workers = flag.Int("workers", 2, "worker goroutines per rank")
		tile    = flag.Int("tile", 32, "blocked-refinement pivot tile")
		steps   = flag.Int("max-steps", 0, "recombination step bound (0 = default)")

		calibrate = flag.Bool("calibrate", false, "measure o/g/L over the real transport and exit")
		rounds    = flag.Int("rounds", 32, "calibration ping-pong rounds")
		calOut    = flag.String("calibrate-out", "", "rank 0: write the calibration JSON here (feed to aaexperiments -model)")
		verify    = flag.Bool("verify", false, "rank 0: check the result against the exact oracle")
		out       = flag.String("out", "", "rank 0: write the distance matrix (text) here")
		metrics   = flag.String("metrics", "", "serve metrics on this address (with -launch: the merged cluster view)")

		obsFlag        = flag.String("obs", "", "serve this rank's obs plane (/metrics, /trace.jsonl) on this address (auto-assigned with -launch; manifest column 3 also sets it)")
		pprofFlag      = flag.Bool("pprof", false, "expose /debug/pprof on the rank obs server")
		trace          = flag.String("trace", "", "write this rank's span trace (JSONL) here, flushed periodically, on exit, and on SIGTERM")
		traceDir       = flag.String("trace-dir", "", "with -launch: write per-rank traces into this directory (rank<i>.jsonl; merge with aatrace -merge)")
		logFormat      = flag.String("log-format", "", "structured log format: text or json (default: no structured logs)")
		scrapeInterval = flag.Duration("scrape-interval", 2*time.Second, "with -launch -metrics: background scrape cadence of the merged aggregator")

		hbInterval   = flag.Duration("hb-interval", 0, "heartbeat interval (0 disables failure detection)")
		hbTimeout    = flag.Duration("hb-timeout", 0, "silence after which a peer is down (default 4x -hb-interval)")
		shardDir     = flag.String("shard-dir", "", "write this rank's recovery shard here every -shard-every steps")
		shardEvery   = flag.Int("shard-every", 1, "recovery-shard cadence in RC steps")
		rejoinWait   = flag.Duration("rejoin-wait", 0, "how long survivors idle in degraded mode waiting for a rejoin")
		minSteps     = flag.Int("min-steps", 0, "force at least this many RC steps before convergence may stop")
		stepThrottle = flag.Duration("step-throttle", 0, "sleep this long after every RC step")
		rejoin       = flag.Bool("rejoin", false, "join as a restarted rank: rejoin the running mesh and restore from the recovery shard")
		supervise    = flag.Bool("supervise", false, "with -launch: relaunch a crashed rank (with -rejoin) after backoff")
		events       = flag.Int("events", 0, "rank 0: stream a dynamic vertex batch of this size into the run")
	)
	flag.CommandLine.Parse(normalizeArgs(os.Args[1:]))

	if *launch {
		os.Exit(launchMesh(launchOpts{
			p: *procs, calibrate: *calibrate, supervise: *supervise,
			hbInterval: *hbInterval, metrics: *metrics,
			traceDir: *traceDir, scrape: *scrapeInterval,
		}))
	}
	peers, manifestObs, err := loadPeers(*peersFlag, *manifest)
	if err != nil {
		fatal(err)
	}
	if *rankID < 0 || *rankID >= len(peers) {
		fatal(fmt.Errorf("-rank %d out of range for %d peers", *rankID, len(peers)))
	}
	opts := transport.TCPOptions{HeartbeatInterval: *hbInterval, HeartbeatTimeout: *hbTimeout}
	var tr *transport.TCP
	if *rejoin {
		tr, err = transport.RejoinTCP(peers, *rankID, opts)
	} else {
		tr, err = transport.NewTCP(peers, *rankID, opts)
	}
	if err != nil {
		fatal(fmt.Errorf("joining mesh: %w", err))
	}
	defer tr.Close()

	var logger *slog.Logger
	if *logFormat != "" {
		if logger, err = obs.NewLogger(os.Stderr, *logFormat); err != nil {
			fatal(err)
		}
	}
	obsAddr := *obsFlag
	if obsAddr == "" && *rankID < len(manifestObs) {
		obsAddr = manifestObs[*rankID]
	}
	if obsAddr == "" {
		obsAddr = *metrics // pre-obs-plane spelling of the same thing
	}
	var tracer *obs.Tracer
	if *trace != "" || obsAddr != "" {
		tracer = obs.NewTracer(0)
	}
	flushTrace := func() {
		if *trace == "" {
			return
		}
		if err := obs.WriteJSONLFile(*trace, tracer.Spans()); err != nil {
			fmt.Fprintf(os.Stderr, "aacluster: trace flush: %v\n", err)
		}
	}
	if *trace != "" {
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
		srv, err := rank.ServeObs(obsAddr, reg, tracer, *pprofFlag)
		if err != nil {
			fatal(fmt.Errorf("obs server: %w", err))
		}
		defer srv.Close()
		if logger != nil {
			logger.Info("obs server up", "rank", tr.Rank(), "addr", srv.Addr())
		}
	}

	if *calibrate {
		cal, err := transport.Calibrate(tr, *rounds)
		if err != nil {
			fatal(err)
		}
		if tr.Rank() == 0 {
			fmt.Println(cal.String())
			model := cal.Model(tr.Size())
			fmt.Printf("model: L=%v o=%v g=%v/B P=%d\n", model.L, model.O, model.G, model.P)
			if *calOut != "" {
				if err := transport.SaveCalibration(*calOut, cal); err != nil {
					fatal(err)
				}
				fmt.Printf("wrote %s\n", *calOut)
			}
		}
		return
	}

	g, err := buildGraph(*n, *m, *seed)
	if err != nil {
		fatal(err)
	}
	cfg := rank.Config{
		Graph: g, Seed: *seed, Workers: *workers, TileSize: *tile, MaxSteps: *steps,
		ShardDir: *shardDir, ShardEvery: *shardEvery,
		MinSteps: *minSteps, StepThrottle: *stepThrottle, RejoinWait: *rejoinWait,
		Obs: tracer, Log: logger,
	}
	if *trace != "" {
		cfg.StepHook = func(tm rank.Telemetry) {
			if tm.Step%32 == 0 {
				flushTrace()
			}
		}
	}
	start := time.Now()
	var r *rank.Runner
	if *rejoin {
		r, err = rank.Rejoin(tr, cfg)
	} else {
		r, err = rank.New(tr, cfg)
	}
	if err != nil {
		fatal(err)
	}
	if reg != nil {
		rank.RegisterMetrics(reg, r)
	}
	if !*rejoin && tr.Rank() == 0 && *events > 0 {
		if err := r.QueueEvents(demoBatch(g.NumVertices(), *events, *seed)); err != nil {
			fatal(err)
		}
	}
	setup := time.Since(start)
	nsteps, err := r.Run()
	if err != nil {
		fatal(err)
	}
	flushTrace()
	elapsed := time.Since(start)
	st, ts := r.Stats(), tr.Stats()
	fmt.Printf("rank %d/%d: converged in %d steps, %v (setup %v); ia=%d relax=%d reships=%d events=%d; sent %d msgs / %d B, recv %d msgs / %d B, reconnects=%d retries=%d\n",
		tr.Rank(), tr.Size(), nsteps, elapsed.Round(time.Millisecond), setup.Round(time.Millisecond),
		st.IAOps, st.RelaxOps, st.Reships, st.EventsApplied,
		ts.MessagesSent, ts.BytesSent, ts.MessagesRecv, ts.BytesRecv, ts.Reconnects, ts.RetryAttempts)
	if down := r.DownSeen(); len(down) > 0 {
		fmt.Printf("rank %d: survived outage of ranks %v (degraded convergences=%d, rejoins integrated=%d)\n",
			tr.Rank(), down, st.DegradedConvergences, st.Rejoins)
	}
	if r.Degraded() {
		fmt.Printf("rank %d: WARNING: stopped in degraded mode, ranks %v still down — distances exclude their contribution\n",
			tr.Rank(), r.DownProcs())
	}

	// GatherDistances is a collective, so whether to gather is rank 0's
	// decision, broadcast to everyone — a rank joined without -verify/-out
	// must still participate when rank 0 wants the matrix.
	want := byte(0)
	if tr.Rank() == 0 && (*verify || *out != "") {
		want = 1
	}
	msg, err := tr.Broadcast(0, transport.Message{Tag: transport.TagControl, Bytes: 1, Payload: []byte{want}})
	if err != nil {
		fatal(err)
	}
	if tr.Rank() != 0 {
		want = msg.Payload.([]byte)[0]
	}
	if want == 0 {
		return
	}
	dist, err := r.GatherDistances()
	if err != nil {
		fatal(err)
	}
	if tr.Rank() != 0 {
		return
	}
	if *verify {
		if err := verifyOracle(g, dist); err != nil {
			fatal(err)
		}
		fmt.Printf("rank 0: verified %d x %d distances against the exact oracle\n", len(dist), len(dist))
	}
	if *out != "" {
		if err := writeDistances(*out, dist); err != nil {
			fatal(err)
		}
		fmt.Printf("rank 0: wrote %s\n", *out)
	}
}

// normalizeArgs lets "-launch 3" mean "-launch -p=3": a bare positive
// integer right after -launch is rewritten into the -p flag.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args)+1)
	for i := 0; i < len(args); i++ {
		a := args[i]
		out = append(out, a)
		if (a == "-launch" || a == "--launch") && i+1 < len(args) {
			if n, err := strconv.Atoi(args[i+1]); err == nil && n > 0 {
				out = append(out, "-p="+strconv.Itoa(n))
				i++
			}
		}
	}
	return out
}

// launchOpts is the launch-parent configuration carved out of the flags.
type launchOpts struct {
	p          int
	calibrate  bool
	supervise  bool
	hbInterval time.Duration
	metrics    string        // merged-aggregator listen address ("" disables)
	traceDir   string        // per-rank trace directory ("" disables)
	scrape     time.Duration // background aggregator scrape cadence
}

// launchMesh reserves P mesh ports plus P obs ports and re-execs this
// binary once per rank, forwarding every non-launch flag and giving each
// child its own -obs address. With supervise, a rank that dies mid-run is
// relaunched after a backoff with -rejoin, re-entering the mesh through
// the liveness plane (which supervision therefore forces on). With
// metrics, the parent runs the cluster aggregator: it scrapes every live
// rank, re-labels series with rank="i", and serves one merged /metrics
// with the computed cross-rank series. SIGINT/SIGTERM is forwarded to the
// children so their trace exporters finalize. It returns the exit code.
func launchMesh(o launchOpts) int {
	if o.p < 2 {
		fmt.Fprintln(os.Stderr, "aacluster: -launch needs -p >= 2")
		return 2
	}
	if o.calibrate {
		o.p = maxInt(o.p, 2)
	}
	ports, err := freePorts(2 * o.p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aacluster: %v\n", err)
		return 1
	}
	addrs, obsAddrs := ports[:o.p], ports[o.p:]
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "aacluster: %v\n", err)
		return 1
	}
	if o.traceDir != "" {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "aacluster: %v\n", err)
			return 1
		}
	}
	// Forward everything except the launch/supervision-mode flags and the
	// obs settings the parent assigns per rank.
	var passthrough []string
	skip := map[string]bool{
		"launch": true, "p": true, "rank": true, "peers": true, "manifest": true,
		"metrics": true, "supervise": true, "rejoin": true,
		"obs": true, "trace": true, "trace-dir": true, "scrape-interval": true,
	}
	flag.Visit(func(f *flag.Flag) {
		if !skip[f.Name] {
			passthrough = append(passthrough, "-"+f.Name+"="+f.Value.String())
		}
	})
	if o.supervise && o.hbInterval <= 0 {
		// A rejoin needs failure detection on every rank; default it on.
		passthrough = append(passthrough, "-hb-interval=500ms")
	}
	var (
		liveMu   sync.Mutex
		live     = map[int]*exec.Cmd{}
		shutdown atomic.Bool
	)
	spawn := func(r, attempt int, rejoin bool) (*exec.Cmd, error) {
		args := append([]string{
			"-rank=" + strconv.Itoa(r),
			"-peers=" + strings.Join(addrs, ","),
			"-obs=" + obsAddrs[r],
		}, passthrough...)
		if o.traceDir != "" {
			// Relaunched generations get distinct files so aatrace -merge
			// sees the pre-kill and post-rejoin segments side by side.
			name := fmt.Sprintf("rank%d.jsonl", r)
			if attempt > 0 {
				name = fmt.Sprintf("rank%d.rejoin%d.jsonl", r, attempt)
			}
			args = append(args, "-trace="+filepath.Join(o.traceDir, name))
		}
		if rejoin {
			args = append(args, "-rejoin")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout = prefixWriter(fmt.Sprintf("[rank %d] ", r), os.Stdout)
		cmd.Stderr = prefixWriter(fmt.Sprintf("[rank %d] ", r), os.Stderr)
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		liveMu.Lock()
		live[r] = cmd
		liveMu.Unlock()
		return cmd, nil
	}
	type exit struct {
		rank int
		err  error
	}
	exits := make(chan exit, o.p)
	watch := func(r int, cmd *exec.Cmd) {
		go func() {
			err := cmd.Wait()
			liveMu.Lock()
			if live[r] == cmd {
				delete(live, r)
			}
			liveMu.Unlock()
			exits <- exit{r, err}
		}()
	}

	// Forward a shutdown signal to every child: their trace exporters
	// flush on SIGTERM, so Ctrl-C on the parent still finalizes traces.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigs)
	go func() {
		<-sigs
		shutdown.Store(true)
		liveMu.Lock()
		for _, cmd := range live {
			cmd.Process.Signal(syscall.SIGTERM)
		}
		liveMu.Unlock()
	}()

	if o.metrics != "" {
		agg := obs.NewHTTPAggregator(obsAddrs, 2*time.Second)
		mux := http.NewServeMux()
		mux.Handle("/metrics", agg)
		ln, err := net.Listen("tcp", o.metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aacluster: merged metrics server: %v\n", err)
			return 1
		}
		defer ln.Close()
		go http.Serve(ln, mux)
		if o.scrape > 0 {
			// Keep scraping in the background so outage episodes are
			// tracked even while no external scraper is attached.
			ticker := time.NewTicker(o.scrape)
			defer ticker.Stop()
			go func() {
				for range ticker.C {
					agg.Scrape(context.Background())
				}
			}()
		}
		fmt.Printf("aacluster: merged cluster metrics on http://%s/metrics (%d ranks)\n", ln.Addr(), o.p)
	}

	for r := 0; r < o.p; r++ {
		cmd, err := spawn(r, 0, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aacluster: starting rank %d: %v\n", r, err)
			return 1
		}
		watch(r, cmd)
	}
	const maxRestarts = 3
	restarts := make([]int, o.p)
	code, running := 0, o.p
	for running > 0 {
		e := <-exits
		// Rank 0 coordinates votes and rejoins; its death ends the run.
		if e.err != nil && o.supervise && !shutdown.Load() && e.rank != 0 && restarts[e.rank] < maxRestarts {
			restarts[e.rank]++
			backoff := time.Duration(restarts[e.rank]) * 500 * time.Millisecond
			fmt.Fprintf(os.Stderr, "aacluster: rank %d died (%v); relaunching with -rejoin in %v (attempt %d/%d)\n",
				e.rank, e.err, backoff, restarts[e.rank], maxRestarts)
			time.Sleep(backoff)
			cmd, err := spawn(e.rank, restarts[e.rank], true)
			if err != nil {
				fmt.Fprintf(os.Stderr, "aacluster: relaunching rank %d: %v\n", e.rank, err)
				code = 1
				running--
				continue
			}
			watch(e.rank, cmd)
			continue
		}
		if e.err != nil && !shutdown.Load() {
			fmt.Fprintf(os.Stderr, "aacluster: rank %d: %v\n", e.rank, e.err)
			code = 1
		}
		running--
	}
	return code
}

// demoBatch builds the -events vertex batch: k new vertices, each wired to
// a deterministic existing vertex and chained to its batch predecessor —
// enough structure to exercise internal, external, and cross-batch edges
// over the wire.
func demoBatch(n, k int, seed int64) change.Event {
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
	return change.Event{Batch: b}
}

// loadPeers resolves the mesh membership from -peers or a manifest file.
// Manifest lines are "<rank> <host:port>" with an optional third column
// declaring the rank's observability address; the second return value maps
// rank -> obs address ("" where undeclared).
func loadPeers(inline, manifestPath string) ([]transport.Peer, []string, error) {
	if inline != "" && manifestPath != "" {
		return nil, nil, fmt.Errorf("use -peers or -manifest, not both")
	}
	if inline != "" {
		var peers []transport.Peer
		for i, addr := range strings.Split(inline, ",") {
			peers = append(peers, transport.Peer{Rank: i, Addr: strings.TrimSpace(addr)})
		}
		return peers, nil, nil
	}
	if manifestPath == "" {
		return nil, nil, fmt.Errorf("no mesh: pass -peers or -manifest (or -launch)")
	}
	f, err := os.Open(manifestPath)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return readManifest(manifestPath, f)
}

// readManifest parses manifest lines from r; name prefixes every error as
// name:line. Ranks must be dense and in order — the i-th peer line has rank
// i, the rule transport.NewTCP enforces — so obsAddrs grows one entry per
// peer and no rank can index past it.
func readManifest(name string, r io.Reader) ([]transport.Peer, []string, error) {
	var peers []transport.Peer
	var obsAddrs []string
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, nil, fmt.Errorf("%s:%d: want \"<rank> <host:port> [obs-host:port]\", got %q", name, line, text)
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, nil, fmt.Errorf("%s:%d: bad rank: %w", name, line, err)
		}
		if id != len(peers) {
			return nil, nil, fmt.Errorf("%s:%d: rank %d, want %d (ranks must be listed 0, 1, 2, ... in order)", name, line, id, len(peers))
		}
		peers = append(peers, transport.Peer{Rank: id, Addr: fields[1]})
		obsAddr := ""
		if len(fields) == 3 {
			obsAddr = fields[2]
		}
		obsAddrs = append(obsAddrs, obsAddr)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	return peers, obsAddrs, nil
}

func buildGraph(n, m int, seed int64) (*graph.Graph, error) {
	g, err := gen.BarabasiAlbert(n, m, gen.Weights{Min: 1, Max: 4}, seed)
	if err != nil {
		return nil, err
	}
	gen.Connectify(g, seed)
	return g, nil
}

func verifyOracle(g *graph.Graph, dist [][]graph.Dist) error {
	want := sssp.APSP(g)
	for v := range want {
		for u := range want[v] {
			if dist[v][u] != want[v][u] {
				return fmt.Errorf("verify: dist[%d][%d] = %d, oracle %d", v, u, dist[v][u], want[v][u])
			}
		}
	}
	return nil
}

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

func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

// prefixWriter tags every line of child output with the rank.
type lineWriter struct {
	prefix string
	dst    *os.File
	buf    []byte
}

func prefixWriter(prefix string, dst *os.File) *lineWriter {
	return &lineWriter{prefix: prefix, dst: dst}
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	for {
		i := strings.IndexByte(string(w.buf), '\n')
		if i < 0 {
			break
		}
		fmt.Fprintf(w.dst, "%s%s\n", w.prefix, w.buf[:i])
		w.buf = w.buf[i+1:]
	}
	return len(p), nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "aacluster: %v\n", err)
	os.Exit(1)
}
