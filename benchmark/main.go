// Command benchmark is the repository's benchmark: six workloads, from
// static convergence of the simulated cluster to the HTTP serving plane,
// each checked against the sequential oracle. See README.md.
//
// One run of one workload (what BENCHMARK.json's command does):
//
//	bash benchmark/run.sh --workload static_dense --seed 1 --seconds 10 --trace 0
//
// prints the metrics by name and, as the last line of standard output, one
// JSON object: the end-to-end metrics untraced, the per-layer metrics with
// --trace 1 (which also writes benchmark/out/<workload>.trace.jsonl).
//
// Without --workload it runs the whole suite, every workload in its own
// child process; -aa N repeats the suite N times on the same code and
// compares the sets; -selfcheck checks that the same seed repeats the
// deterministic counters exactly and another seed changes the inputs.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run once; empty runs the suite")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	scale := flag.String("scale", "full", "full, or tiny for the smoke test")
	aa := flag.Int("aa", 0, "run the suite this many times on the same code and compare the sets")
	selfcheck := flag.Bool("selfcheck", false, "check determinism: same seed repeats the counters, another seed changes the inputs")
	flag.Parse()

	sz, err := sizesByName(*scale)
	if err == nil {
		switch {
		case *workload != "":
			err = runOnce(*workload, *seed, *seconds, *trace != 0, sz)
		case *selfcheck:
			err = selfCheck(*seed, *seconds, *scale)
		case *aa > 0:
			err = runAA(*aa, *seed, *seconds, *scale)
		default:
			_, err = runSuite(*seed, *seconds, *scale, true)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOnce runs one workload in this process and prints its report. A run
// that could not produce a result exits non-zero without printing one; a
// run whose checks failed prints the result with correct=false and exits
// non-zero too.
func runOnce(name string, seed int64, seconds float64, traced bool, sz sizes) error {
	res, err := runWorkload(name, seed, seconds, traced, sz)
	if err != nil {
		return err
	}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	rep := report{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]metricValue{}}
	fmt.Printf("%s seed=%d scale=%s traced=%v wall=%.1fs attempted=%d failed=%d\n",
		name, seed, sz.name, traced, res.Wall.Seconds(), res.Attempted, res.Failed)
	for _, s := range specs {
		v := res.Metrics[s.Name]
		rep.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
		line := fmt.Sprintf("  %-30s %14.6g %-6s n=%-6d", s.Name, v, s.Unit, res.Samples[s.Name])
		if s.Bound > 0 {
			line += fmt.Sprintf(" bound=%.0f%%", 100*s.Bound)
		}
		if s.Moves != "" {
			line += " -> " + s.Moves
		}
		fmt.Println(line)
	}
	for _, p := range res.Problems {
		fmt.Println("  FAILED:", p)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// child runs one workload in a child process of its own (so that
// peak_rss_mb is that workload's alone) and parses its report.
func child(name string, seed int64, seconds float64, traced bool, scale string, show bool) (report, error) {
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(os.Args[0], "--workload", name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", t, "--scale", scale)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n") // never empty
	if show {
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	}
	var rep report
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); jerr != nil {
		if err != nil {
			return rep, fmt.Errorf("%s: %w", name, err)
		}
		return rep, fmt.Errorf("%s: no report: %w", name, jerr)
	}
	return rep, err
}

// suiteResult holds one pass over every workload: metric values keyed
// "<workload>/<metric>".
type suiteResult map[string]float64

// runSuite runs every workload untraced and traced, and prints the wall
// time of each and of the whole.
func runSuite(seed int64, seconds float64, scale string, show bool) (suiteResult, error) {
	all := suiteResult{}
	start := time.Now()
	var firstErr error
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			t0 := time.Now()
			rep, err := child(name, seed, seconds, traced, scale, show)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			for k, v := range rep.Metrics {
				all[name+"/"+k] = v.Value
			}
			fmt.Printf("wall %-20s traced=%-5v %6.1f s\n", name, traced, time.Since(t0).Seconds())
		}
	}
	fmt.Printf("wall total %.1f s\n", time.Since(start).Seconds())
	return all, firstErr
}

// runAA runs the suite n times on the same code (each set with its own
// seed, as the driver does) and prints, per end-to-end metric and
// workload, the median, the quartiles and their distance as a share of
// the median next to the metric's bound. It fails when a spread is wider
// than its bound.
func runAA(n int, seed int64, seconds float64, scale string) error {
	sets := make([]suiteResult, n)
	for i := range sets {
		var err error
		if sets[i], err = runSuite(seed+int64(i), seconds, scale, false); err != nil {
			return err
		}
	}
	var wide []string
	fmt.Printf("%-20s %-16s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, name := range workloadNames {
		for _, s := range endToEnd {
			var v []float64
			for _, set := range sets {
				v = append(v, set[name+"/"+s.Name])
			}
			med, q1, q3 := quartiles(v)
			spread := (q3 - q1) / med
			fmt.Printf("%-20s %-16s %12.5g %12.5g %12.5g %7.1f%% %5.0f%%\n", name, s.Name, med, q1, q3, 100*spread, 100*s.Bound)
			if spread > s.Bound && s.Name != "setup_s" {
				wide = append(wide, name+"/"+s.Name)
			}
		}
	}
	if len(wide) > 0 {
		return fmt.Errorf("spread wider than the bound: %s", strings.Join(wide, ", "))
	}
	return nil
}

// selfCheck runs every workload's traced run twice with one seed and once
// with the next: the counters in `exact` must repeat bit for bit under the
// same seed, and the other seed must change the generated inputs (seen
// through the counters that depend on them). serve_mixed is left out of
// the exact comparison: its driver interleaves admission with RC steps by
// wall clock, so its step and op counts are not a function of the seed.
func selfCheck(seed int64, seconds float64, scale string) error {
	var bad []string
	for _, name := range workloadNames {
		a, err := child(name, seed, seconds, true, scale, false)
		if err != nil {
			return err
		}
		b, err := child(name, seed, seconds, true, scale, false)
		if err != nil {
			return err
		}
		c, err := child(name, seed+1, seconds, true, scale, false)
		if err != nil {
			return err
		}
		before, changed := len(bad), false
		for _, k := range exact {
			if name != "serve_mixed" && a.Metrics[k].Value != b.Metrics[k].Value {
				bad = append(bad, fmt.Sprintf("%s/%s: %v then %v under the same seed", name, k, a.Metrics[k].Value, b.Metrics[k].Value))
			}
			if a.Metrics[k].Value != c.Metrics[k].Value {
				changed = true
			}
		}
		if !changed && name != "serve_mixed" {
			bad = append(bad, name+": another seed left every counter unchanged")
		}
		if len(bad) == before {
			fmt.Printf("selfcheck %-20s ok\n", name)
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		return fmt.Errorf("not deterministic:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// quartiles returns the median and the first and third quartile as
// Python's statistics.quantiles(v, n=4) computes them (the driver's rule).
// That rule extrapolates beyond the data when there are fewer than four
// values; then the smallest and the largest value stand in for the
// quartiles, so that two sets are judged by how far apart they are.
func quartiles(v []float64) (med, q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) < 4 {
		return medianFloat(s), s[0], s[len(s)-1]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return medianFloat(s), cut(1), cut(3)
}
