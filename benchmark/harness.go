package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"anytime/internal/graph"
	"anytime/internal/obs"
)

// env is everything a workload is built from. The program under test only
// ever sees inputs generated from seed, never the workload's name.
type env struct {
	seed int64
	size sizes
	obs  *obs.Tracer // nil in the untraced run
	rec  *recorder   // nil in the untraced run
}

// derive gives each input its own seed (splitmix64 of seed and a tag).
func (e env) derive(tag int64) int64 {
	z := uint64(e.seed)*0x9e3779b97f4a7c15 + uint64(tag)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// workload is one traffic mix. Setup builds the inputs and the state
// measuring starts from; Cycle runs the workload's fixed sequence of
// operations once, recording samples on the meter and pausing it around
// the benchmark's own work (oracle checks, generating the next cycle's
// inputs, rebuilding the start state); Layers reports what the layers'
// exported counters and the span budget say.
type workload interface {
	Setup() error
	Cycle(c int, m *meter) error
	Layers(m *meter, b *budget, out map[string]float64)
	Close()
}

// meter collects one run's samples. Its clock only runs while measured
// work does: the budget of --seconds is spent by operations of the program,
// not by the benchmark checking them.
type meter struct {
	budget    time.Duration
	updates   []time.Duration
	answers   []time.Duration
	attempted int
	failed    int
	problems  []string

	rssMB      float64 // resident high-water mark before the first oracle check
	wall, cpu  time.Duration
	wall0      time.Time
	cpu0       time.Duration
	running    bool
	firstCycle bool // counters are taken over cycle 0 only
}

func (m *meter) resume() {
	m.wall0, m.cpu0, m.running = time.Now(), cpuTime(), true
}

func (m *meter) pause() {
	if m.running {
		m.wall += time.Since(m.wall0)
		m.cpu += cpuTime() - m.cpu0
		m.running = false
	}
}

// untimed runs fn with the meter stopped.
func (m *meter) untimed(fn func()) {
	m.pause()
	fn()
	m.resume()
}

// spent reports whether the measuring budget is used up. A cycle checks it
// between operations, except in cycle 0, which always completes so that
// the counters cover the same work on every machine.
func (m *meter) spent() bool {
	if m.firstCycle {
		return false
	}
	w := m.wall
	if m.running {
		w += time.Since(m.wall0)
	}
	return w >= m.budget
}

// markRSS records the process's resident high-water mark the first time it
// is called: a workload calls it before its first oracle check, so the
// benchmark's own matrices are not counted as the program's memory.
func (m *meter) markRSS() {
	if m.rssMB == 0 {
		m.rssMB = peakRSSMB()
	}
}

func (m *meter) update(d time.Duration) { m.updates = append(m.updates, d); m.attempted++ }
func (m *meter) answer(d time.Duration) { m.answers = append(m.answers, d); m.attempted++ }

// fail counts n failed operations.
func (m *meter) fail(n int, format string, args ...interface{}) {
	m.failed += n
	if len(m.problems) < 8 {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func medianFloat(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sameMatrix reports whether two distance matrices are bit-identical.
func sameMatrix(a, b [][]graph.Dist) bool {
	return slices.EqualFunc(a, b, func(x, y []graph.Dist) bool { return slices.Equal(x, y) })
}

// oracleCloseness is the engine's closeness definition applied to exact
// distances: 1 / sum of finite distances to the other vertices.
func oracleCloseness(dist [][]graph.Dist) []float64 {
	c := make([]float64, len(dist))
	for v, row := range dist {
		var sum int64
		for t, d := range row {
			if d != graph.InfDist && t != v {
				sum += int64(d)
			}
		}
		if sum > 0 {
			c[v] = 1 / float64(sum)
		}
	}
	return c
}

// result is one run of one workload.
type result struct {
	Workload  string
	Attempted int
	Failed    int
	Problems  []string
	Metrics   map[string]float64
	Samples   map[string]int // sample counts behind the medians
	Wall      time.Duration  // whole run, set-up and checks included
}

// traceDir is where a traced run writes its first cycle's spans, relative
// to the root of the checkout the benchmark runs from.
var traceDir = "benchmark/out"

// Set-up is repeated until it has run minSetupReps times and for
// minSetupTime in all (at most maxSetupReps times): a set-up of a few
// milliseconds needs many repetitions for a steady median, one of half a
// second does not.
const (
	minSetupReps = 3
	maxSetupReps = 40
	minSetupTime = 600 * time.Millisecond
)

// runWorkload runs one workload once: untraced for the end-to-end metrics,
// traced for the per-layer ones.
func runWorkload(name string, seed int64, seconds float64, traced bool, sz sizes) (*result, error) {
	start := time.Now()
	res := &result{Workload: name, Metrics: map[string]float64{}, Samples: map[string]int{}}
	e := env{seed: seed, size: sz}
	var err error
	if traced {
		err = res.runTraced(e, seconds)
	} else {
		err = res.runUntraced(e, seconds)
	}
	res.Wall = time.Since(start)
	return res, err
}

// setUp builds a workload and runs its set-up.
func setUp(name string, e env) (workload, error) {
	w, err := newWorkload(name, e)
	if err != nil {
		return nil, err
	}
	if err := w.Setup(); err != nil {
		w.Close()
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	return w, nil
}

// runUntraced sets up several times (setup_s is the median), measures on
// the last instance and reports the end-to-end metrics.
func (r *result) runUntraced(e env, seconds float64) error {
	var setups []float64
	var w workload
	for began := time.Now(); len(setups) < minSetupReps ||
		(len(setups) < maxSetupReps && time.Since(began) < minSetupTime); {
		if w != nil {
			w.Close()
			releaseMemory()
		}
		t0 := time.Now()
		var err error
		if w, err = setUp(r.Workload, e); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.Close()
	m, _, err := measure(w, r.Workload, seconds, e)
	if err != nil {
		return err
	}
	r.fill(m)
	r.set("setup_s", medianFloat(setups), len(setups))
	r.set("update_p50_ms", ms(quantile(m.updates, 0.5)), len(m.updates))
	r.set("answer_p50_ms", ms(quantile(m.answers, 0.5)), len(m.answers))
	r.set("cpu_ms_per_op", ms(m.cpu)/float64(len(m.updates)), len(m.updates))
	r.set("peak_rss_mb", m.rssMB, 1)
	return nil
}

func (r *result) set(name string, value float64, samples int) {
	r.Metrics[name], r.Samples[name] = value, samples
}

// runTraced measures a short untraced reference first and then a traced
// instance, whose spans and counters give the per-layer metrics; the
// difference between the two is the tracing overhead.
func (r *result) runTraced(e env, seconds float64) error {
	ref, err := setUp(r.Workload, e)
	if err != nil {
		return err
	}
	mref, _, err := measure(ref, r.Workload, seconds*0.3, e)
	ref.Close()
	if err != nil {
		return err
	}
	releaseMemory()

	e.obs = obs.NewTracer(1 << 18)
	e.rec = newRecorder(e.obs)
	w, err := setUp(r.Workload, e)
	if err != nil {
		return err
	}
	defer w.Close()
	m, b, err := measure(w, r.Workload, seconds*0.7, e)
	if err != nil {
		return err
	}
	out := r.Metrics
	w.Layers(m, b, out)
	out["bench.ops"] = float64(len(m.updates))
	out["bench.update_p90_ms"] = ms(quantile(m.updates, 0.9))
	out["bench.answer_p90_ms"] = ms(quantile(m.answers, 0.9))
	if b.parent > 0 {
		gap := b.parent - b.total()
		out["bench.budget_gap_share"] = float64(max(gap, -gap)) / float64(b.parent)
	}
	if p := quantile(mref.updates, 0.5); p > 0 {
		out["obs.trace_overhead_share"] = float64(quantile(m.updates, 0.5)-p) / float64(p)
	}
	out["obs.spans_dropped"] = float64(e.obs.Dropped())
	for _, s := range perLayer { // a layer the workload does not exercise reports 0
		r.set(s.Name, out[s.Name], len(m.updates))
	}
	r.fill(m) // after Layers: its probes can fail too
	r.Attempted += mref.attempted
	r.Failed += mref.failed
	r.Problems = append(r.Problems, mref.problems...)
	printBudget(r.Workload, b, len(m.updates))
	return nil
}

func (r *result) fill(m *meter) {
	r.Attempted, r.Failed, r.Problems = m.attempted, m.failed, m.problems
}

// measure runs cycles until the meter's budget is spent. It returns the meter and, for a traced run, the
// span budget; the first cycle's spans go to benchmark/out/.
func measure(w workload, name string, seconds float64, e env) (*meter, *budget, error) {
	m := &meter{budget: time.Duration(seconds * float64(time.Second)), firstCycle: true}
	b := newBudget()
	for c := 0; c == 0 || !m.spent(); c++ {
		m.resume()
		err := w.Cycle(c, m)
		m.pause()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: cycle %d: %w", name, c, err)
		}
		m.markRSS()
		m.firstCycle = false
		if e.obs != nil {
			bs, ps := e.rec.drain(), e.obs.Spans()
			e.obs.Reset()
			b.add(bs, ps)
			if c == 0 {
				if err := writeTrace(filepath.Join(traceDir, name+".trace.jsonl"), name, bs, ps); err != nil {
					return nil, nil, fmt.Errorf("%s: writing trace: %w", name, err)
				}
			}
		}
	}
	if len(m.updates) == 0 || len(m.answers) == 0 {
		return nil, nil, fmt.Errorf("%s: no samples", name)
	}
	return m, b, nil
}

// printBudget prints the traced run's time budget: self time per span name,
// per update operation, and how the parts add up to the parent spans.
func printBudget(name string, b *budget, ops int) {
	if b.parent == 0 {
		return
	}
	keys := make([]string, 0, len(b.self))
	for k := range b.self {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return b.self[keys[i]] > b.self[keys[j]] })
	fmt.Printf("time budget of %s (self time = span minus what its children cover; %d ops)\n", name, ops)
	for _, k := range keys {
		fmt.Printf("  %-28s %10.3f ms/op  %5.1f %%\n", k, ms(b.self[k])/float64(ops),
			100*float64(b.self[k])/float64(b.parent))
	}
	fmt.Printf("  %-28s %10.3f ms/op  (sum of self times %.3f ms/op)\n", "parent spans",
		ms(b.parent)/float64(ops), ms(b.total())/float64(ops))
}
