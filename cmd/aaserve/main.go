// Command aaserve runs the anytime-anywhere engine as a live query-serving
// HTTP server: the engine converges and absorbs dynamic events in the
// background while every request is answered from the latest published
// snapshot.
//
// Serve a generated scale-free graph:
//
//	aaserve -n 2000 -seed 1 -p 8 -addr :8080
//
// Serve a graph file (Pajek .net or plain edge list) with checkpointing:
//
//	aaserve -graph web.net -checkpoint web.ckpt -addr :8080
//
// If the checkpoint file already exists the engine resumes from it instead
// of recomputing; on SIGINT/SIGTERM the server drains in-flight requests,
// converges the admitted events, and rewrites the checkpoint.
//
// Endpoints: GET /v1/topk?k=K, GET /v1/closeness/{vertex},
// GET /v1/snapshot, POST /v1/events, GET /healthz, GET /metrics.
// Feed it live events with: aastream -mode replay -target http://host:8080.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"anytime"
	"anytime/internal/obs"
)

func main() {
	var (
		n       = flag.Int("n", 2000, "generated base graph size (ignored with -graph)")
		m       = flag.Int("m", 2, "generated graph attachment edges per vertex")
		seed    = flag.Int64("seed", 1, "seed for generation and partitioning")
		graphF  = flag.String("graph", "", "graph file to serve (.net Pajek, else edge list)")
		p       = flag.Int("p", 8, "simulated processors")
		publish = flag.Int("publish", 1, "publish a snapshot every K RC steps")
		queue   = flag.Int("queue", 4096, "admission queue capacity (events)")
		topkIdx = flag.Int("topk-index", 64, "precomputed top-k index size")
		addr    = flag.String("addr", ":8080", "HTTP listen address")
		ckpt    = flag.String("checkpoint", "", "checkpoint path (restored at start if present, written on shutdown)")
		traceF  = flag.String("trace", "", "record phase-level spans and write them (JSONL) to this file on shutdown; convert with aatrace")
		pprofF  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		logFmt  = flag.String("log-format", "", "structured driver logs: text or json (default: no structured logs)")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "aaserve: %v\n", err)
		os.Exit(1)
	}

	opts := anytime.DefaultOptions()
	opts.P = *p
	opts.Seed = *seed
	opts.Strategy = anytime.AutoPS
	var tracer *obs.Tracer
	if *traceF != "" {
		tracer = obs.NewTracer(obs.DefaultCapacity)
		opts.Obs = tracer
	}

	e, err := buildEngine(*graphF, *n, *m, *seed, *ckpt, opts)
	if err != nil {
		fail(err)
	}
	cfg := anytime.ServeConfig{
		PublishEvery:   *publish,
		QueueCapacity:  *queue,
		TopKIndex:      *topkIdx,
		CheckpointPath: *ckpt,
	}
	if *logFmt != "" {
		if cfg.Log, err = obs.NewLogger(os.Stderr, *logFmt); err != nil {
			fail(err)
		}
	}
	srv, err := anytime.NewServer(e, cfg)
	if err != nil {
		fail(err)
	}
	v := srv.View()
	fmt.Printf("aaserve: serving %d vertices / %d edges on %s (P=%d, publish every %d steps, converged=%v)\n",
		v.Vertices, v.Edges, *addr, *p, *publish, v.Converged)

	handler := srv.Handler()
	if *pprofF {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		fail(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: drain in-flight requests against the live store,
	// then drain+converge the engine and write the checkpoint.
	fmt.Fprintln(os.Stderr, "aaserve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "aaserve: http shutdown: %v\n", err)
	}
	if err := srv.Close(); err != nil {
		fail(err)
	}
	final := srv.View()
	fmt.Printf("aaserve: stopped at snapshot v%d (%d vertices, %d RC steps, converged=%v)\n",
		final.Version, final.Vertices, final.Metrics.RCSteps, final.Converged)
	if *ckpt != "" {
		fmt.Printf("aaserve: checkpoint written to %s\n", *ckpt)
	}
	if tracer != nil {
		// Atomic finalize (temp file + fsync + rename): a reader never
		// observes a half-written trace, even if shutdown is interrupted.
		if err := obs.WriteFileAtomic(*traceF, func(w io.Writer) error { return obs.WriteJSONL(w, tracer.Spans()) }); err != nil {
			fail(err)
		}
		fmt.Printf("aaserve: %d spans written to %s (%d dropped by the ring)\n",
			tracer.Len(), *traceF, tracer.Dropped())
	}
}

// buildEngine restores from the checkpoint when present, otherwise builds
// a fresh engine over the given (loaded or generated) graph.
func buildEngine(graphFile string, n, m int, seed int64, ckpt string, opts anytime.Options) (*anytime.Engine, error) {
	if ckpt != "" {
		if f, err := os.Open(ckpt); err == nil {
			defer f.Close()
			e, err := anytime.RestoreEngine(f, opts)
			if err != nil {
				return nil, fmt.Errorf("restoring %s: %w", ckpt, err)
			}
			fmt.Printf("aaserve: resumed from checkpoint %s\n", ckpt)
			return e, nil
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	var (
		g   *anytime.Graph
		err error
	)
	if graphFile != "" {
		f, ferr := os.Open(graphFile)
		if ferr != nil {
			return nil, ferr
		}
		defer f.Close()
		if filepath.Ext(graphFile) == ".net" {
			g, err = anytime.ReadPajek(f)
		} else {
			g, err = anytime.ReadEdgeList(f)
		}
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", graphFile, err)
		}
	} else {
		if g, err = anytime.ScaleFreeGraph(n, m, seed); err != nil {
			return nil, err
		}
	}
	return anytime.NewEngine(g, opts)
}
