// Command aatrace inspects and converts phase-span traces recorded by the
// engine's observability layer (aaserve -trace, aaexperiments -trace).
//
// Print a summary of a recorded run:
//
//	aatrace run.jsonl
//
// Convert it to a Chrome trace-event file (load in chrome://tracing or
// https://ui.perfetto.dev), one process lane per rank and one thread lane
// per simulated processor within it:
//
//	aatrace -chrome trace.json run.jsonl
//
// The -clock flag picks which time base the Chrome timeline uses: "wall"
// (real time inside the engine) or "virtual" (the simulated LogP cluster
// time — the paper's cost model). Summaries always show both.
//
// Merge mode stitches N per-rank trace files (aacluster -trace-dir) into
// one step-aligned distributed timeline, one lane per rank. Ranks' clocks
// are aligned on their shared RC-step markers — the BSP step discipline
// guarantees rc-step span starts coincide across ranks — so a
// SIGKILL -> degraded -> rejoin sequence reads as one coherent timeline:
//
//	aatrace -merge -chrome cluster.json traces/rank0.jsonl traces/rank1.jsonl traces/rank2.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"anytime/internal/obs"
)

func main() {
	var (
		chrome = flag.String("chrome", "", "write a Chrome trace-event JSON file to this path")
		clock  = flag.String("clock", "wall", "Chrome timeline time base: wall or virtual")
		merge  = flag.Bool("merge", false, "merge N per-rank trace files into one step-aligned timeline, one lane per rank")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "aatrace: %v\n", err)
		os.Exit(1)
	}
	virtual := false
	switch *clock {
	case "wall":
	case "virtual":
		virtual = true
	default:
		fail(fmt.Errorf("unknown -clock %q (want wall or virtual)", *clock))
	}

	var spans []obs.Span
	if *merge {
		if flag.NArg() < 1 {
			fail(fmt.Errorf("-merge needs at least one per-rank trace file"))
		}
		files := make([][]obs.Span, 0, flag.NArg())
		for _, path := range flag.Args() {
			fs, err := readSpans(path)
			if err != nil {
				fail(err)
			}
			files = append(files, fs)
		}
		spans = obs.MergeTraces(files)
		if len(spans) == 0 {
			fail(fmt.Errorf("no spans across %d files", flag.NArg()))
		}
	} else {
		var in io.Reader = os.Stdin
		name := "stdin"
		if flag.NArg() > 1 {
			fail(fmt.Errorf("at most one input file without -merge (got %d)", flag.NArg()))
		}
		if flag.NArg() == 1 {
			f, err := os.Open(flag.Arg(0))
			if err != nil {
				fail(err)
			}
			defer f.Close()
			in, name = f, flag.Arg(0)
		}
		var err error
		spans, err = obs.ReadJSONL(in)
		if err != nil {
			fail(fmt.Errorf("reading %s: %w", name, err))
		}
		if len(spans) == 0 {
			fail(fmt.Errorf("%s holds no spans", name))
		}
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fail(err)
		}
		if err := obs.WriteChromeTrace(f, spans, virtual); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("aatrace: %d spans -> %s (%s clock, one lane per rank and processor); open in chrome://tracing or ui.perfetto.dev\n",
			len(spans), *chrome, *clock)
		return
	}

	summarize(spans)
}

// readSpans loads one JSONL trace file.
func readSpans(path string) ([]obs.Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spans, err := obs.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return spans, nil
}

// kindAgg aggregates one span kind.
type kindAgg struct {
	count      int
	wall, virt time.Duration
	value      int64
}

// summarize prints the per-kind and per-processor rollups.
func summarize(spans []obs.Span) {
	byKind := map[obs.Kind]*kindAgg{}
	byProc := map[int32]*kindAgg{}
	steps := map[int32]bool{}
	for _, s := range spans {
		k, ok := byKind[s.Kind]
		if !ok {
			k = &kindAgg{}
			byKind[s.Kind] = k
		}
		k.count++
		k.wall += s.WallDur
		k.virt += s.VirtDur
		k.value += s.Value
		if s.Proc >= 0 {
			p, ok := byProc[s.Proc]
			if !ok {
				p = &kindAgg{}
				byProc[s.Proc] = p
			}
			p.count++
			p.wall += s.WallDur
			p.virt += s.VirtDur
		}
		steps[s.Step] = true
	}

	fmt.Printf("%d spans, %d distinct steps\n\n", len(spans), len(steps))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "phase\tspans\twall\tvirtual\tvalue")
	kinds := make([]obs.Kind, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		a := byKind[k]
		fmt.Fprintf(w, "%s\t%d\t%v\t%v\t%d\n",
			k, a.count, a.wall.Round(time.Microsecond), a.virt.Round(time.Microsecond), a.value)
	}
	w.Flush()

	if len(byProc) == 0 {
		return
	}
	fmt.Println()
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "proc\tspans\twall\tvirtual")
	procs := make([]int32, 0, len(byProc))
	for p := range byProc {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	var virts []time.Duration
	for _, p := range procs {
		a := byProc[p]
		fmt.Fprintf(w, "%d\t%d\t%v\t%v\n",
			p, a.count, a.wall.Round(time.Microsecond), a.virt.Round(time.Microsecond))
		virts = append(virts, a.virt)
	}
	w.Flush()
	fmt.Printf("\nvirtual-time imbalance across processors (max/mean): %.3f\n", obs.Imbalance(virts))
}
