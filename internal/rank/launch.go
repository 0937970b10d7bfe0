package rank

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
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

	"anytime/internal/obs"
	"anytime/internal/transport"
)

// launchMesh reserves P mesh ports plus P obs ports and re-execs the
// running executable once per rank, forwarding every flag set on fs except
// the launch-mode ones and giving each child its own -obs address. With
// -supervise, a rank that dies mid-run is relaunched after a backoff with
// -rejoin, re-entering the mesh through the liveness plane (which
// supervision therefore forces on). With -metrics, the parent runs the
// cluster aggregator: it scrapes every live rank, re-labels series with
// rank="i", and serves one merged /metrics with the computed cross-rank
// series. SIGINT/SIGTERM is forwarded to the children so their trace
// exporters finalize. It returns the exit code.
func launchMesh(fs *flag.FlagSet, o cliOptions, stdout, stderr io.Writer) int {
	stdout, stderr = &lockedWriter{w: stdout}, &lockedWriter{w: stderr}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "aacluster: "+format+"\n", args...)
		return 1
	}
	if o.p < 2 {
		fmt.Fprintln(stderr, "aacluster: -launch needs -p >= 2")
		return 2
	}
	ports, err := freePorts(2 * o.p)
	if err != nil {
		return fail("%v", err)
	}
	addrs, obsAddrs := ports[:o.p], ports[o.p:]
	exe, err := os.Executable()
	if err != nil {
		return fail("%v", err)
	}
	if o.traceDir != "" {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return fail("%v", err)
		}
	}
	// Forward everything except the launch/supervision-mode flags and the
	// obs settings the parent assigns per rank.
	var passthrough []string
	skip := map[string]bool{
		"launch": true, "p": true, "rank": true, "peers": true, "manifest": true,
		"metrics": true, "supervise": true, "rejoin": true,
		"obs": true, "trace": true, "trace-dir": true,
	}
	fs.Visit(func(f *flag.Flag) {
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
		done     = make(chan struct{})
	)
	defer close(done)
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
		prefix := fmt.Sprintf("[rank %d] ", r)
		cmd.Stdout = &lineWriter{prefix: prefix, dst: stdout}
		cmd.Stderr = &lineWriter{prefix: prefix, dst: stderr}
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
		select {
		case <-sigs:
		case <-done:
			return
		}
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
			return fail("merged metrics server: %v", err)
		}
		defer ln.Close()
		go http.Serve(ln, mux)
		// Keep scraping in the background so outage episodes are tracked
		// even while no external scraper is attached.
		go func() {
			ticker := time.NewTicker(2 * time.Second)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					agg.Scrape(context.Background())
				case <-done:
					return
				}
			}
		}()
		fmt.Fprintf(stdout, "aacluster: merged cluster metrics on http://%s/metrics (%d ranks)\n", ln.Addr(), o.p)
	}

	for r := 0; r < o.p; r++ {
		cmd, err := spawn(r, 0, false)
		if err != nil {
			return fail("starting rank %d: %v", r, err)
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
			fmt.Fprintf(stderr, "aacluster: rank %d died (%v); relaunching with -rejoin in %v (attempt %d/%d)\n",
				e.rank, e.err, backoff, restarts[e.rank], maxRestarts)
			time.Sleep(backoff)
			cmd, err := spawn(e.rank, restarts[e.rank], true)
			if err != nil {
				code = fail("relaunching rank %d: %v", e.rank, err)
				running--
				continue
			}
			watch(e.rank, cmd)
			continue
		}
		if e.err != nil && !shutdown.Load() {
			code = fail("rank %d: %v", e.rank, e.err)
		}
		running--
	}
	return code
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

// freePorts reserves n distinct localhost addresses by listening on :0 and
// closing again (a small reuse window before the ranks bind them).
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// lockedWriter serializes the launch parent's writes and its children's
// output pumps onto one stream.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// lineWriter tags every complete line of one child's output with its rank.
type lineWriter struct {
	prefix string
	dst    io.Writer
	buf    []byte
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		fmt.Fprintf(w.dst, "%s%s\n", w.prefix, w.buf[:i])
		w.buf = w.buf[i+1:]
	}
}
