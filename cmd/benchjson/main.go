// Command benchjson converts `go test -bench` text output on stdin into a
// JSON document on stdout, so benchmark runs can be archived and diffed
// (see the bench-json Makefile target, which records the RC-phase and
// figure-reproduction benchmarks in BENCH_rc.json).
//
// Every benchmark result line becomes one entry holding the iteration
// count and every value/unit pair the benchmark reported (ns/op, B/op,
// allocs/op, and custom metrics such as rowsshipped/step).
//
// With -compare BASELINE.json, the parsed run is instead checked against
// an archived baseline: every gated benchmark (kernel per-call cost, RC
// relax/refine phases, traced step, inproc round trip) present in both runs
// must keep its ns/op within the regression threshold (15%), or the command
// exits nonzero (see the bench-compare Makefile target). A baseline that is
// missing, empty or unparseable fails the comparison outright.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type benchmark struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type document struct {
	Context    map[string]string `json:"context"`
	Benchmarks []benchmark       `json:"benchmarks"`
}

func main() {
	baseline := flag.String("compare", "", "baseline JSON file: check RC relax/refine ns/op against it instead of emitting JSON")
	threshold := flag.Float64("threshold", 0.15, "allowed fractional ns/op regression in -compare mode")
	flag.Parse()
	doc, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *baseline != "" {
		if err := compare(doc, *baseline, *threshold); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// gated reports whether a benchmark participates in the regression gate:
// the min-plus kernel's per-call cost at narrow and full-row widths, the RC
// relax-phase and refine-phase benchmarks plus the tracer-enabled step
// benchmark, whose ns/op is the committed performance contract.
func gated(name string) bool {
	// The TCP round trip is archived but not gated: loopback RTTs are
	// scheduler noise, not a performance contract.
	return strings.HasPrefix(name, "BenchmarkRCKernelHops/") ||
		strings.HasPrefix(name, "BenchmarkRCRelaxPhase") ||
		strings.HasPrefix(name, "BenchmarkRCRefinePhase") ||
		strings.HasPrefix(name, "BenchmarkRCStepTraced") ||
		strings.HasPrefix(name, "BenchmarkTransportRoundTripInproc")
}

// compare checks the parsed run's gated benchmarks against the archived
// baseline, printing one line per comparison. Benchmarks absent from the
// baseline (newly added) or from the run pass with a note; a gated ns/op
// above baseline*(1+threshold) fails the whole comparison.
func compare(run *document, baselinePath string, threshold float64) error {
	const regenerate = "regenerate it with `make bench-json`"
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w (%s)", err, regenerate)
	}
	var base document
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s is empty or not benchjson output: %v (%s)", baselinePath, err, regenerate)
	}
	if len(base.Benchmarks) == 0 {
		return fmt.Errorf("baseline %s holds no benchmarks (%s)", baselinePath, regenerate)
	}
	baseNS := map[string]float64{}
	baseVirt := map[string]float64{}
	for _, b := range base.Benchmarks {
		if !gated(b.Name) {
			continue
		}
		if ns, ok := b.Metrics["ns/op"]; ok {
			baseNS[b.Name] = ns
		}
		if v, ok := b.Metrics["virt-ms/op"]; ok {
			baseVirt[b.Name] = v
		}
	}
	compared, failed := 0, 0
	for _, b := range run.Benchmarks {
		if !gated(b.Name) {
			continue
		}
		ns, ok := b.Metrics["ns/op"]
		if !ok {
			continue
		}
		// The simulated LogP clock rides along in the table: virtual time is
		// what the figure reproductions report, so a wall-time comparison
		// without it hides algorithmic (op-count) shifts behind machine noise.
		virt := ""
		if v, ok := b.Metrics["virt-ms/op"]; ok {
			virt = fmt.Sprintf("  virt %8.3f ms", v)
			if bv, ok := baseVirt[b.Name]; ok && bv > 0 {
				virt += fmt.Sprintf(" (%+.1f%%)", 100*(v-bv)/bv)
			}
		}
		old, ok := baseNS[b.Name]
		delete(baseNS, b.Name)
		if !ok {
			fmt.Printf("  new  %-44s %14.1f ns/op (no baseline)%s\n", b.Name, ns, virt)
			continue
		}
		compared++
		delta := (ns - old) / old
		verdict := "ok"
		if delta > threshold {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("  %-4s %-44s %14.1f ns/op  baseline %14.1f  %+6.1f%%%s\n",
			verdict, b.Name, ns, old, 100*delta, virt)
	}
	for name := range baseNS {
		fmt.Printf("  gone %-44s (in baseline, not in this run)\n", name)
	}
	if compared == 0 {
		return fmt.Errorf("no gated benchmarks in common with %s", baselinePath)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d gated benchmarks regressed more than %.0f%%",
			failed, compared, 100*threshold)
	}
	fmt.Printf("benchjson: %d gated benchmarks within %.0f%% of %s\n",
		compared, 100*threshold, baselinePath)
	return nil
}

func parse(sc *bufio.Scanner) (*document, error) {
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	doc := &document{Context: map[string]string{}}
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch {
		case len(fields) >= 2 && (fields[0] == "goos:" || fields[0] == "goarch:" || fields[0] == "cpu:"):
			key := strings.TrimSuffix(fields[0], ":")
			doc.Context[key] = strings.TrimSpace(strings.TrimPrefix(line, fields[0]))
		case len(fields) >= 2 && fields[0] == "pkg:":
			pkg = fields[1]
		case strings.HasPrefix(fields[0], "Benchmark") && len(fields) >= 4:
			iters, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				continue // a PASS/FAIL or log line that happens to match
			}
			b := benchmark{
				Name:       trimProcSuffix(fields[0]),
				Package:    pkg,
				Iterations: iters,
				Metrics:    map[string]float64{},
			}
			for i := 2; i+1 < len(fields); i += 2 {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					continue
				}
				b.Metrics[fields[i+1]] = v
			}
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines on stdin")
	}
	return doc, nil
}

// trimProcSuffix strips the trailing "-N" GOMAXPROCS marker the testing
// package appends to benchmark names (absent when GOMAXPROCS is 1).
func trimProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
