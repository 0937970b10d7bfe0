package rank

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The launch path under go test: Main spawns three ranks that re-exec
// this test binary (TestMain routes them back into Main), rank 0 streams a
// five-vertex batch and an edge-add event over TCP, and the gathered
// matrix of the grown graph must equal the exact oracle.
func TestLaunchMeshEventsVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real OS processes")
	}
	t.Setenv("AA_RANK_MAIN", "1")
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"-launch", "-p", "3", "-n", "300", "-events", "5", "-verify"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	const verified = "[rank 0] rank 0: verified 305 x 305 distances against the exact oracle"
	if !strings.Contains(stdout.String(), verified) {
		t.Fatalf("no %q line in:\n%s", verified, &stdout)
	}
	for r := 0; r < 3; r++ {
		st := summary(stdout.String(), fmt.Sprintf("[rank %d] rank %d/3:", r, r))
		if st["converged"] != "true" || st["events"] != "2" || st["down-seen"] != "[]" {
			t.Fatalf("rank %d summary %v, want converged with 2 events and no outage", r, st)
		}
	}
}

func TestLoadPeersManifest(t *testing.T) {
	cases := []struct {
		name     string
		manifest string
		wantErr  string   // substring of the error, "" = accepted
		addrs    []string // peer addresses when accepted
		obs      []string // obs addresses when accepted
	}{
		{
			name:     "two columns",
			manifest: "# mesh\n0 127.0.0.1:1\n\n1 127.0.0.1:2\n",
			addrs:    []string{"127.0.0.1:1", "127.0.0.1:2"},
			obs:      []string{"", ""},
		},
		{
			name:     "three columns",
			manifest: "0 127.0.0.1:1 127.0.0.1:11\n1 127.0.0.1:2\n2 127.0.0.1:3 127.0.0.1:13\n",
			addrs:    []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"},
			obs:      []string{"127.0.0.1:11", "", "127.0.0.1:13"},
		},
		{name: "negative rank", manifest: "-1 127.0.0.1:1 127.0.0.1:2\n", wantErr: ":1: rank -1, want 0"},
		{name: "huge rank", manifest: "1000000000 127.0.0.1:1\n", wantErr: ":1: rank 1000000000, want 0"},
		{name: "gap", manifest: "0 a:1\n2 a:3\n", wantErr: ":2: rank 2, want 1"},
		{name: "duplicate", manifest: "0 a:1\n1 a:2\n1 a:3\n", wantErr: ":3: rank 1, want 2"},
		{name: "out of order", manifest: "# comment\n1 a:2\n0 a:1\n", wantErr: ":2: rank 1, want 0"},
		{name: "one field", manifest: "0 a:1\n1\n", wantErr: ":2: want"},
		{name: "four fields", manifest: "0 a:1 b:1 c:1\n", wantErr: ":1: want"},
		{name: "bad rank", manifest: "zero a:1\n", wantErr: ":1: bad rank"},
	}
	dir := t.TempDir()
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "_")+".manifest")
			if err := os.WriteFile(path, []byte(c.manifest), 0o644); err != nil {
				t.Fatal(err)
			}
			peers, obsAddrs, err := loadPeers("", path)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), path+c.wantErr) {
					t.Fatalf("case %d: err = %v, want %q", i, err, path+c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(peers) != len(c.addrs) || len(obsAddrs) != len(c.obs) {
				t.Fatalf("got %d peers, %d obs addrs; want %d, %d", len(peers), len(obsAddrs), len(c.addrs), len(c.obs))
			}
			for r, p := range peers {
				if p.Rank != r || p.Addr != c.addrs[r] || obsAddrs[r] != c.obs[r] {
					t.Fatalf("peer %d = %+v obs %q, want addr %q obs %q", r, p, obsAddrs[r], c.addrs[r], c.obs[r])
				}
			}
		})
	}
}

// FuzzLoadPeers: the manifest decoder never panics, and every manifest it
// accepts lists rank i at position i with one obs entry per peer.
func FuzzLoadPeers(f *testing.F) {
	for _, seed := range []string{
		"0 127.0.0.1:1\n1 127.0.0.1:2\n",
		"# mesh\n0 h:1 h:11\n\n1 h:2\n",
		"-1 127.0.0.1:1 127.0.0.1:2\n",
		"1000000000 127.0.0.1:1\n",
		"0 a\n0 b\n",
		"1 a\n0 b\n",
		"0\n",
		"0 a b c\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, manifest string) {
		peers, obsAddrs, err := readManifest("fuzz", strings.NewReader(manifest))
		if err != nil {
			return
		}
		if len(obsAddrs) != len(peers) {
			t.Fatalf("%d peers but %d obs addrs", len(peers), len(obsAddrs))
		}
		for i, p := range peers {
			if p.Rank != i {
				t.Fatalf("peers[%d].Rank = %d", i, p.Rank)
			}
		}
	})
}
