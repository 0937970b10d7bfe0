package rank

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"anytime/internal/graph"
	"anytime/internal/sssp"
	"anytime/internal/transport"
)

// TestMain doubles as the aacluster binary: with AA_RANK_MAIN=1 the test
// binary runs Main on its arguments instead of the tests. The
// multi-process tests start their ranks that way, and the ranks of a
// launched mesh re-exec this binary the same way.
func TestMain(m *testing.M) {
	if os.Getenv("AA_RANK_MAIN") == "1" {
		os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// rankProc is one aacluster rank running as a child of the test binary.
type rankProc struct {
	cmd *exec.Cmd
	out bytes.Buffer // the rank's stdout, complete once wait returns
}

// startRank starts rank r of the mesh over addrs on the (n, seed) graph,
// with extra aacluster flags.
func startRank(t *testing.T, r int, addrs []string, n int, seed int64, flags ...string) *rankProc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{
		"-rank=" + strconv.Itoa(r), "-peers=" + strings.Join(addrs, ","),
		"-n=" + strconv.Itoa(n), "-seed=" + strconv.FormatInt(seed, 10),
	}, flags...)
	p := &rankProc{cmd: exec.Command(exe, args...)}
	p.cmd.Env = append(os.Environ(), "AA_RANK_MAIN=1")
	p.cmd.Stdout = &p.out
	p.cmd.Stderr = os.Stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return p
}

// startMesh starts every rank of a fresh P-rank mesh with the same flags.
func startMesh(t *testing.T, P, n int, seed int64, flags ...string) []*rankProc {
	t.Helper()
	addrs := testPorts(t, P)
	procs := make([]*rankProc, P)
	for r := range procs {
		procs[r] = startRank(t, r, addrs, n, seed, flags...)
	}
	return procs
}

func waitRanks(t *testing.T, procs []*rankProc) {
	t.Helper()
	for r, p := range procs {
		if err := p.cmd.Wait(); err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// summary returns the key=value fields of the summary line that starts
// with prefix in a rank's (or a launch parent's) stdout, nil if absent.
func summary(stdout, prefix string) map[string]string {
	for _, line := range strings.Split(stdout, "\n") {
		if !strings.HasPrefix(line, prefix) || !strings.Contains(line, " down-seen=") {
			continue
		}
		kv := map[string]string{}
		for _, f := range strings.Fields(line) {
			if k, v, ok := strings.Cut(f, "="); ok {
				kv[k] = v
			}
		}
		return kv
	}
	return nil
}

// requireMatrixFile fails unless the -out file at path is exactly the text
// rendering of want.
func requireMatrixFile(t *testing.T, label, path string, want [][]graph.Dist) {
	t.Helper()
	wantPath := filepath.Join(t.TempDir(), "want.txt")
	if err := writeDistances(wantPath, want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := os.ReadFile(wantPath)
	if err != nil {
		t.Fatal(err)
	}
	gotRows, wantRows := strings.Split(string(got), "\n"), strings.Split(string(exp), "\n")
	if len(gotRows) != len(wantRows) {
		t.Fatalf("%s: %d rows, want %d", label, len(gotRows)-1, len(wantRows)-1)
	}
	for v := range wantRows {
		if gotRows[v] != wantRows[v] {
			t.Fatalf("%s: row %d differs:\n got %s\nwant %s", label, v, gotRows[v], wantRows[v])
		}
	}
}

func testPorts(t *testing.T, k int) []string {
	t.Helper()
	addrs, err := freePorts(k)
	if err != nil {
		t.Fatal(err)
	}
	return addrs
}

func tcpMesh(t *testing.T, n int) []transport.Transport {
	t.Helper()
	addrs := testPorts(t, n)
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
			ts[i], errs[i] = transport.NewTCP(peers, i, transport.TCPOptions{
				MeshTimeout:     10 * time.Second,
				ExchangeTimeout: 10 * time.Second,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d mesh setup: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range ts {
			tr.Close()
		}
	})
	return ts
}

// The runner over real sockets (in-process TCP mesh) converges to the
// exact oracle, same as inproc.
func TestRunnerTCPMeshMatchesOracle(t *testing.T) {
	const n, P, seed = 80, 2, 5
	g := testGraph(t, n, seed)
	dist := runRanks(t, tcpMesh(t, P), func(int) Config {
		return Config{Graph: g, Seed: seed}
	})
	if err := verifyOracle(g, dist); err != nil {
		t.Fatal(err)
	}
}

// The full acceptance test: N real OS processes, each one aacluster rank
// over TCP, converge a graph and produce distances bit-identical to the
// inproc backend (and therefore to the exact oracle).
func TestMultiProcessTCPBitIdenticalToInproc(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real OS processes")
	}
	const n, P, seed = 100, 3, 9
	out := filepath.Join(t.TempDir(), "dist.txt")
	waitRanks(t, startMesh(t, P, n, seed, "-out="+out))

	g := testGraph(t, n, seed)
	requireMatrixFile(t, "tcp processes vs oracle", out, sssp.APSP(g))
	want := runRanks(t, inprocGroup(P), func(int) Config {
		return Config{Graph: g, Seed: seed}
	})
	requireMatrixFile(t, "tcp processes vs inproc", out, want)
}
