package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleRun = `goos: linux
pkg: anytime/internal/kernel
BenchmarkRCKernelHops/n=24-2   	100000000	         9.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkRCKernelTileArena-2   	   20000	     60000 ns/op
`

func parseSample(t *testing.T) *document {
	t.Helper()
	doc, err := parse(bufio.NewScanner(strings.NewReader(sampleRun)))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// An unusable baseline must fail the gate and say how to rebuild it: a
// 0-byte BENCH_rc.json once left `make bench-compare` dead for three PRs.
func TestCompareRejectsUnusableBaseline(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"empty.json":   "",
		"garbage.json": "not json",
		"norows.json":  `{"context":{},"benchmarks":[]}`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		err := compare(parseSample(t), path, 0.15)
		if err == nil || !strings.Contains(err.Error(), "make bench-json") {
			t.Errorf("%s: error %v does not name `make bench-json`", name, err)
		}
	}
	if err := compare(parseSample(t), filepath.Join(dir, "missing.json"), 0.15); err == nil || !strings.Contains(err.Error(), "make bench-json") {
		t.Errorf("missing baseline: error %v does not name `make bench-json`", err)
	}
}

// The kernel's per-call rows are gated under their sub-benchmark names.
func TestCompareGatesKernelRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	base := `{"benchmarks":[{"name":"BenchmarkRCKernelHops/n=24","iterations":1,"metrics":{"ns/op":%s}}]}`
	if err := os.WriteFile(path, []byte(strings.Replace(base, "%s", "8.5", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compare(parseSample(t), path, 0.15); err != nil {
		t.Errorf("9.0 against 8.5 ns/op is within 15%%: %v", err)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(base, "%s", "6", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compare(parseSample(t), path, 0.15); err == nil {
		t.Error("9.0 against 6 ns/op passed a 15% gate")
	}
}
