package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"anytime/internal/obs"
)

// bspan is one span the benchmark itself records around a call into a
// layer. Offsets are on the clock of the run's obs.Tracer, so they line up
// with the spans the program emits into that tracer.
type bspan struct {
	id, parent int32
	name       string // "<layer>.<call>", e.g. "core.Engine.Step"
	proc       int32  // rank for multi-rank workloads, -1 otherwise
	start, end time.Duration
}

// recorder keeps the benchmark's spans in memory. A nil recorder (the
// untraced run) records nothing.
type recorder struct {
	clock *obs.Tracer
	mu    sync.Mutex
	spans []bspan // ids drained+1 .. next, in order
	next  int32
}

func newRecorder(clock *obs.Tracer) *recorder { return &recorder{clock: clock} }

// begin opens a span under parent (0 = a root) and returns its id.
func (r *recorder) begin(parent int32, name string) int32 { return r.beginProc(parent, name, -1) }

func (r *recorder) beginProc(parent int32, name string, proc int) int32 {
	if r == nil {
		return 0
	}
	now := r.clock.Now()
	r.mu.Lock()
	r.next++
	id := r.next
	r.spans = append(r.spans, bspan{id: id, parent: parent, name: name, proc: int32(proc), start: now, end: -1})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int32) {
	if r == nil || id == 0 {
		return
	}
	now := r.clock.Now()
	r.mu.Lock()
	if i := len(r.spans) - int(r.next-id) - 1; i >= 0 { // a span drained while open is dropped
		r.spans[i].end = now
	}
	r.mu.Unlock()
}

// drain returns the finished spans recorded since the last drain.
func (r *recorder) drain() []bspan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// Program spans rank above every benchmark span (they only occur inside
// one), and among themselves by how deep the program nests them.
var kindPrio = map[obs.Kind]int{
	obs.KindRCStep:            101,
	obs.KindDD:                102,
	obs.KindIA:                102,
	obs.KindRCShip:            102,
	obs.KindRCRelax:           102,
	obs.KindRCExchange:        102,
	obs.KindChange:            102,
	obs.KindCheckpointWrite:   102,
	obs.KindCheckpointRestore: 102,
	obs.KindRCRefineTile:      103,
}

// budget turns one cycle's spans into self times: every instant inside a
// root span is given to the deepest span active at that instant, so spans
// that overlap because processors run in parallel are not counted twice and
// the self times of a root's descendants plus its own add up to its
// duration exactly. Keys are benchmark span names and program span kinds.
type budget struct {
	self   map[string]time.Duration
	count  map[string]int // benchmark spans per name
	parent time.Duration  // total duration of the root spans
}

func newBudget() *budget {
	return &budget{self: map[string]time.Duration{}, count: map[string]int{}}
}

type edge struct {
	at   time.Duration
	open bool
	key  int
}

func (b *budget) add(bs []bspan, ps []obs.Span) {
	depth := map[int32]int{}
	var keys []string
	var prios []int
	index := map[string]int{}
	keyOf := func(name string, prio int) int { // a name keeps the depth it is first seen at
		if i, ok := index[name]; ok {
			return i
		}
		index[name] = len(keys)
		keys = append(keys, name)
		prios = append(prios, prio)
		return len(keys) - 1
	}
	var edges []edge
	var roots [][2]time.Duration
	for _, s := range bs { // parents are recorded before their children
		if s.end < 0 {
			continue
		}
		d := 0
		if s.parent != 0 {
			d = depth[s.parent] + 1
		}
		depth[s.id] = d
		if s.parent == 0 {
			roots = append(roots, [2]time.Duration{s.start, s.end})
			b.parent += s.end - s.start
		}
		b.count[s.name]++
		k := keyOf(s.name, d)
		edges = append(edges, edge{s.start, true, k}, edge{s.end, false, k})
	}
	// A program span counts where it overlaps a root: the serving driver's
	// spans start before and end after the requests that wait for them, and
	// a span outside every root is set-up.
	for _, s := range ps {
		prio, ok := kindPrio[s.Kind]
		if !ok {
			continue
		}
		for _, r := range roots {
			lo, hi := max(s.Wall, r[0]), min(s.Wall+s.WallDur, r[1])
			if lo <= hi && s.Wall <= r[1] && s.Wall+s.WallDur >= r[0] {
				k := keyOf(s.Kind.String(), prio)
				edges = append(edges, edge{lo, true, k}, edge{hi, false, k})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].open && !edges[j].open
	})
	active := make([]int, len(keys))
	var last time.Duration
	for _, e := range edges {
		if e.at > last {
			best := -1
			for k, n := range active {
				if n > 0 && (best < 0 || prios[k] > prios[best]) {
					best = k
				}
			}
			if best >= 0 {
				b.self[keys[best]] += e.at - last
			}
		}
		last = e.at
		if e.open {
			active[e.key]++
		} else {
			active[e.key]--
		}
	}
}

// perOp is the self time of the given keys together, in seconds per
// operation.
func (b *budget) perOp(ops int, keys ...string) float64 {
	var t time.Duration
	for _, k := range keys {
		t += b.self[k]
	}
	return t.Seconds() / float64(ops)
}

// total is the sum of all self times; it equals parent by construction,
// and bench.budget_gap_share reports the difference so a broken span tree
// shows.
func (b *budget) total() time.Duration {
	var t time.Duration
	for _, v := range b.self {
		t += v
	}
	return t
}

type traceLine struct {
	Src      string `json:"src"` // "bench" or "program"
	ID       int32  `json:"id,omitempty"`
	Parent   int32  `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Proc     int32  `json:"proc"`
	Step     int32  `json:"step,omitempty"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Value    int64  `json:"value,omitempty"`
}

// writeTrace writes one cycle's spans as JSONL. A program span's parent is
// the innermost benchmark span (of the same rank, where ranks apply) that
// contains its start.
func writeTrace(path, workload string, bs []bspan, ps []obs.Span) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf) // encoding these lines into memory cannot fail
	for _, s := range bs {
		enc.Encode(traceLine{Src: "bench", ID: s.id, Parent: s.parent, Name: s.name,
			Workload: workload, Proc: s.proc, StartNS: int64(s.start), EndNS: int64(s.end)})
	}
	for _, s := range ps {
		var parent int32
		for _, c := range bs { // later spans are deeper or later; keep the last match
			if c.start <= s.Wall && s.Wall <= c.end && (c.proc < 0 || c.proc == s.Rank) {
				parent = c.id
			}
		}
		enc.Encode(traceLine{Src: "program", Parent: parent, Name: s.Kind.String(),
			Workload: workload, Proc: s.Proc, Step: s.Step, StartNS: int64(s.Wall),
			EndNS: int64(s.Wall + s.WallDur), Value: s.Value})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
