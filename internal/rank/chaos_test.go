package rank

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"anytime/internal/core"
	"anytime/internal/partition"
	"anytime/internal/sssp"
)

// waitForFile polls until the file exists and is non-empty.
func waitForFile(t *testing.T, path string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", path)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// The headline robustness test: three real OS processes over TCP, one
// SIGKILLed mid-recombination. The survivors must detect the death via
// heartbeats, report a degraded convergence naming exactly the dead rank,
// keep idling inside the rejoin window, integrate the relaunched process
// (restored from its recovery shard), and produce a gathered distance
// matrix bit-identical to a run that never crashed.
func TestChaosSIGKILLRejoinBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real OS processes")
	}
	const n, P, seed = 100, 3, 9
	const victim = 1
	addrs := testPorts(t, P)
	dir := t.TempDir()
	out := filepath.Join(dir, "dist.txt")
	shardDir := filepath.Join(dir, "shards")
	if err := os.Mkdir(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	flags := []string{
		"-out=" + out, "-shard-dir=" + shardDir, "-hb-interval=50ms",
		"-min-steps=8", "-step-throttle=50ms", "-rejoin-wait=60s",
	}
	procs := make([]*rankProc, P)
	for r := range procs {
		procs[r] = startRank(t, r, addrs, n, seed, flags...)
	}
	// Kill the victim once its first recovery shard is on disk (so the
	// relaunch has state to restore) and it is a couple of steps into RC.
	waitForFile(t, fmt.Sprintf("%s/aarank-%d.shard", shardDir, victim), 20*time.Second)
	time.Sleep(120 * time.Millisecond)
	if err := procs[victim].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := procs[victim].cmd.Wait(); err == nil {
		t.Fatal("SIGKILLed child exited cleanly")
	}
	// Give the survivors time to time out the victim's heartbeats and reach
	// a degraded convergence before the replacement shows up.
	time.Sleep(2 * time.Second)
	procs[victim] = startRank(t, victim, addrs, n, seed, append(flags, "-rejoin")...)
	waitRanks(t, procs)

	for r, p := range procs {
		st := summary(p.out.String(), fmt.Sprintf("rank %d/%d:", r, P))
		if st["converged"] != "true" {
			t.Fatalf("rank %d did not fully reconverge: %v", r, st)
		}
		if r == victim {
			continue
		}
		if want := fmt.Sprintf("[%d]", victim); st["down-seen"] != want {
			t.Fatalf("survivor %d outage report %q, want %q", r, st["down-seen"], want)
		}
		if st["degraded"] == "0" {
			t.Fatalf("survivor %d never reached a degraded convergence: %v", r, st)
		}
		if st["rejoins"] == "0" {
			t.Fatalf("survivor %d integrated no rejoin: %v", r, st)
		}
	}

	g := testGraph(t, n, seed)
	requireMatrixFile(t, "crashed vs oracle", out, sssp.APSP(g))
	// Bit-identical to a fault-free run of the same configuration.
	want := runRanks(t, inprocGroup(P), func(int) Config {
		return Config{Graph: g, Seed: seed}
	})
	requireMatrixFile(t, "crashed vs fault-free", out, want)
}

// An unsupervised run that loses a rank stops degraded, and a degraded
// matrix is never published: rank 0 exits non-zero without the "verified"
// line and without writing -out, while the other survivor exits cleanly.
func TestDegradedStopNeitherVerifiesNorWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real OS processes")
	}
	const n, P, seed = 100, 3, 9
	const victim = 1
	dir := t.TempDir()
	out := filepath.Join(dir, "dist.txt")
	shardDir := filepath.Join(dir, "shards")
	if err := os.Mkdir(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	procs := startMesh(t, P, n, seed, "-verify", "-out="+out, "-shard-dir="+shardDir,
		"-hb-interval=50ms", "-min-steps=8", "-step-throttle=50ms")
	waitForFile(t, fmt.Sprintf("%s/aarank-%d.shard", shardDir, victim), 20*time.Second)
	if err := procs[victim].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	procs[victim].cmd.Wait()
	if err := procs[2].cmd.Wait(); err != nil {
		t.Fatalf("survivor 2: %v", err)
	}
	if err := procs[0].cmd.Wait(); err == nil {
		t.Fatal("rank 0 exited cleanly after a degraded stop")
	}
	stdout := procs[0].out.String()
	if st := summary(stdout, fmt.Sprintf("rank 0/%d:", P)); st["degraded"] == "0" || st["converged"] != "false" {
		t.Fatalf("rank 0 summary %v, want a degraded stop", st)
	}
	if strings.Contains(stdout, "verified") {
		t.Fatalf("degraded rank 0 printed a verified line:\n%s", stdout)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("degraded rank 0 wrote -out (stat: %v)", err)
	}
}

// Dynamic vertex additions streamed through rank 0 of a three-real-process
// TCP run must converge to the exact oracle of the grown graph —
// bit-identical to the single-process engine on the same topology.
func TestMultiProcessTCPDynamicEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real OS processes")
	}
	const n, P, k, seed = 100, 3, 4, 9
	out := filepath.Join(t.TempDir(), "dist.txt")
	procs := startMesh(t, P, n, seed, "-out="+out, "-events="+strconv.Itoa(k))
	waitRanks(t, procs)
	evs := demoEvents(n, k, seed)
	for r, p := range procs {
		if st := summary(p.out.String(), fmt.Sprintf("rank %d/%d:", r, P)); st["events"] != strconv.Itoa(len(evs)) {
			t.Fatalf("rank %d applied events=%s, want %d", r, st["events"], len(evs))
		}
	}
	// Re-derive the grown topology (base + journal) and its exact oracle.
	g2 := testGraph(t, n, seed)
	part2, err := partition.Multilevel{Seed: seed}.Partition(g2, P)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.NewEventLog(P).Replay(g2, part2, evs); err != nil {
		t.Fatal(err)
	}
	requireMatrixFile(t, "tcp processes vs oracle", out, sssp.APSP(g2))

	opts := core.NewOptions()
	opts.P = P
	opts.Seed = seed
	e, err := core.New(g2, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	requireMatrixFile(t, "tcp processes vs single-process engine", out, e.Distances())
}
