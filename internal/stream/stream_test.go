package stream

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"anytime/internal/core"
	"anytime/internal/gen"
	"anytime/internal/graph"
	"anytime/internal/sssp"
)

func baseGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbert(n, 2, gen.Weights{Min: 1, Max: 3}, seed)
	if err != nil {
		t.Fatal(err)
	}
	gen.Connectify(g, seed)
	return g
}

func TestGenerateValidStream(t *testing.T) {
	base := baseGraph(t, 80, 1)
	s, err := Generate(base, GenConfig{Ticks: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.BaseN != 80 {
		t.Fatalf("base = %d", s.BaseN)
	}
	if s.FinalN() <= 80 {
		t.Fatal("stream added no vertices")
	}
	kinds := map[Kind]int{}
	for _, ev := range s.Events {
		kinds[ev.Kind]++
	}
	for _, k := range []Kind{AddVertex, AddEdge, SetWeight, DelEdge} {
		if kinds[k] == 0 {
			t.Fatalf("no %s events generated: %v", k, kinds)
		}
	}
	// the base graph must be untouched
	if base.NumVertices() != 80 {
		t.Fatal("Generate mutated the base graph")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	base := baseGraph(t, 50, 2)
	a, err := Generate(base, GenConfig{Ticks: 40, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(base, GenConfig{Ticks: 40, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatal("event counts differ")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	base := baseGraph(t, 60, 3)
	s, err := Generate(base, GenConfig{Ticks: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.BaseN != s.BaseN || len(got.Events) != len(s.Events) {
		t.Fatalf("shape: %d/%d vs %d/%d", got.BaseN, len(got.Events), s.BaseN, len(s.Events))
	}
	for i := range s.Events {
		if got.Events[i] != s.Events[i] {
			t.Fatalf("event %d: %+v vs %+v", i, got.Events[i], s.Events[i])
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",
		"nonsense\n",
		"base 2\n0 bogus 1\n",
		"base 2\n0 adde 0\n",                   // missing fields
		"base 2\n5 addv 7\n",                   // non-dense id
		"base 2\n5 adde 0 1 2\n1 adde 0 1 1\n", // time disorder
		"base 2\n0 adde 0 1 0\n",               // zero weight
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("input %q should fail", c)
		}
	}
}

// Check validates a batch against a live shape: it returns the grown
// vertex count and the vertices the batch deletes, never writes to the
// caller's deleted set, and rejects with ErrInvalidEvent.
func TestCheckAgainstLiveShape(t *testing.T) {
	deleted := map[int32]bool{1: true}
	n, newly, err := Check([]Event{
		{Kind: AddVertex, U: 4}, {Kind: AddEdge, U: 4, V: 0, W: 1}, {Kind: DelVertex, U: 2},
	}, 4, deleted)
	if err != nil || n != 5 || len(newly) != 1 || !newly[2] || len(deleted) != 1 {
		t.Fatalf("Check = %d, %v, %v; deleted now %v", n, newly, err, deleted)
	}
	for i, evs := range [][]Event{
		{{Kind: AddEdge, U: 0, V: 1, W: 1}},                    // 1 was deleted before the batch
		{{Kind: DelVertex, U: 2}, {Kind: DelEdge, U: 2, V: 0}}, // 2 is deleted earlier in the batch
		{{Kind: AddVertex, U: 5}},                              // the next ID is 4
	} {
		if _, _, err := Check(evs, 4, deleted); !errors.Is(err, ErrInvalidEvent) {
			t.Fatalf("batch %d: err = %v, want ErrInvalidEvent", i, err)
		}
	}
}

func TestWindowing(t *testing.T) {
	s := &Stream{BaseN: 3, Events: []Event{
		{Time: 0, Kind: AddVertex, U: 3},
		{Time: 1, Kind: AddEdge, U: 3, V: 0, W: 1},
		{Time: 5, Kind: AddEdge, U: 0, V: 1, W: 1},
		{Time: 11, Kind: DelEdge, U: 0, V: 1},
	}}
	w := s.Window(5)
	if len(w) != 3 {
		t.Fatalf("windows = %d", len(w))
	}
	if len(w[0]) != 2 || len(w[1]) != 1 || len(w[2]) != 1 {
		t.Fatalf("window sizes: %d %d %d", len(w[0]), len(w[1]), len(w[2]))
	}
	if len(s.Window(0)) == 0 { // width 0 falls back to 1
		t.Fatal("zero width broke windowing")
	}
	empty := &Stream{BaseN: 1}
	if empty.Window(5) != nil {
		t.Fatal("empty stream should have no windows")
	}
}

// Replaying a generated stream through the engine must land on exactly the
// oracle state of the fully-applied stream.
func TestReplayMatchesOracle(t *testing.T) {
	base := baseGraph(t, 70, 5)
	s, err := Generate(base, GenConfig{Ticks: 40, Seed: 5, VertexChurnRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	o := core.NewOptions()
	o.P = 4
	o.Seed = 5
	o.Strategy = core.AutoPS
	e, err := core.New(base, o)
	if err != nil {
		t.Fatal(err)
	}
	windows, err := Replay(e, s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if windows == 0 {
		t.Fatal("no windows replayed")
	}
	if !e.Converged() {
		t.Fatal("engine not converged after replay")
	}
	want, err := GrownGraph(base, s)
	if err != nil {
		t.Fatal(err)
	}
	got := e.Graph()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("graph shape %d/%d, want %d/%d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	want.ForEachEdge(func(u, v int, w graph.Weight) {
		gw, ok := got.EdgeWeight(u, v)
		if !ok || gw != w {
			t.Fatalf("edge {%d,%d,w=%d} mismatch (got %d,%v)", u, v, w, gw, ok)
		}
	})
	// distances must equal the oracle on the final graph
	exact := sssp.APSP(want)
	dist := e.Distances()
	for v := range dist {
		if dist[v] == nil {
			continue // deleted
		}
		for u := range dist[v] {
			if !e.Alive(int32(u)) {
				continue
			}
			if dist[v][u] != exact[v][u] {
				t.Fatalf("dist[%d][%d] = %d, want %d", v, u, dist[v][u], exact[v][u])
			}
		}
	}
}

func TestReplayBaseMismatch(t *testing.T) {
	base := baseGraph(t, 30, 7)
	s, err := Generate(base, GenConfig{Ticks: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	other := baseGraph(t, 25, 8)
	o := core.NewOptions()
	o.P = 2
	e, err := core.New(other, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(e, s, 5); err == nil {
		t.Fatal("base mismatch accepted")
	}
}

// Regression: delete-then-re-add of the same edge within one window must
// preserve stream order (the edge exists at the end).
func TestReplayPreservesOrderWithinWindow(t *testing.T) {
	base := graph.New(4)
	base.MustAddEdge(0, 1, 2)
	base.MustAddEdge(1, 2, 1)
	base.MustAddEdge(2, 3, 1)
	base.MustAddEdge(3, 0, 1)
	s := &Stream{BaseN: 4, Events: []Event{
		{Time: 0, Kind: DelEdge, U: 0, V: 1},
		{Time: 0, Kind: AddEdge, U: 0, V: 1, W: 5}, // re-added, heavier
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	o := core.NewOptions()
	o.P = 2
	e, err := core.New(base, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(e, s, 10); err != nil {
		t.Fatal(err)
	}
	w, ok := e.Graph().EdgeWeight(0, 1)
	if !ok || w != 5 {
		t.Fatalf("edge {0,1} = %d,%v; want 5,true", w, ok)
	}
	want, _ := GrownGraph(base, s)
	exact := sssp.APSP(want)
	dist := e.Distances()
	for v := range dist {
		for u := range dist[v] {
			if dist[v][u] != exact[v][u] {
				t.Fatalf("dist[%d][%d] = %d, want %d", v, u, dist[v][u], exact[v][u])
			}
		}
	}
}

// TestDuplicateEdgeRule: re-adding an existing edge keeps the lighter
// weight in the engine and in the oracle view alike — a lighter re-add
// lowers the edge, a heavier one changes nothing.
func TestDuplicateEdgeRule(t *testing.T) {
	for _, tc := range []struct {
		name  string
		w     graph.Weight
		want  graph.Weight // weight of {0,1} afterwards
		want5 graph.Dist   // D[0][5] afterwards
	}{
		{"lighter", 1, 1, 21},
		{"heavier", 9, 5, 25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := graph.New(6)
			for v := 0; v < 5; v++ {
				base.MustAddEdge(v, v+1, 5)
			}
			s := &Stream{BaseN: 6, Events: []Event{{Kind: AddEdge, U: 0, V: 1, W: tc.w}}}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			grown, err := GrownGraph(base, s)
			if err != nil {
				t.Fatal(err)
			}
			if w, _ := grown.EdgeWeight(0, 1); w != tc.want {
				t.Fatalf("oracle edge {0,1} = %d, want %d", w, tc.want)
			}
			o := core.NewOptions()
			o.P = 2
			e, err := core.New(base, o)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Replay(e, s, 10); err != nil {
				t.Fatal(err)
			}
			dist, exact := e.Distances(), sssp.APSP(grown)
			if dist[0][5] != tc.want5 || exact[0][5] != tc.want5 {
				t.Fatalf("D[0][5]: engine %d, oracle %d, want %d", dist[0][5], exact[0][5], tc.want5)
			}
			for v := range dist {
				for u := range dist[v] {
					if dist[v][u] != exact[v][u] {
						t.Fatalf("dist[%d][%d] = %d, oracle %d", v, u, dist[v][u], exact[v][u])
					}
				}
			}
		})
	}
}
