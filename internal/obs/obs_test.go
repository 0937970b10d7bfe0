package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTracerRingOrderAndDrop(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Record(Span{Kind: KindRCStep, Proc: -1, Step: int32(i)})
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	spans := tr.Spans()
	for i, s := range spans {
		if want := int32(i + 2); s.Step != want {
			t.Fatalf("span %d has step %d, want %d (oldest-first order)", i, s.Step, want)
		}
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatalf("after Reset: Len=%d Dropped=%d", tr.Len(), tr.Dropped())
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
	tr.Record(Span{Kind: KindDD})
	tr.Reset()
	if tr.Now() != 0 || tr.Len() != 0 || tr.Dropped() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer methods not inert")
	}
}

// The disabled-tracer instrumentation path must be allocation-free: this is
// the contract that makes always-on instrumentation acceptable in the RC
// hot loop.
func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	s := Span{Kind: KindRCRelax, Proc: 1, Step: 7, Value: 42}
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.Enabled() {
			t.Fatal("unreachable")
		}
		tr.Record(s)
	})
	if allocs != 0 {
		t.Fatalf("nil tracer path allocates %.1f per op, want 0", allocs)
	}
}

// A live tracer's steady-state Record must not allocate either (the ring is
// preallocated).
func TestEnabledTracerZeroAllocRecord(t *testing.T) {
	tr := NewTracer(64)
	s := Span{Kind: KindRCRelax, Proc: 1, Step: 7}
	allocs := testing.AllocsPerRun(1000, func() { tr.Record(s) })
	if allocs != 0 {
		t.Fatalf("enabled tracer Record allocates %.1f per op, want 0", allocs)
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "unknown" || name == "" {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := KindFromString(name)
		if !ok || back != k {
			t.Fatalf("round trip %d -> %q -> %d/%v", k, name, back, ok)
		}
	}
	if _, ok := KindFromString("no-such-kind"); ok {
		t.Fatal("bogus kind resolved")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []Span{
		{Kind: KindDD, Proc: -1, Step: 0, Wall: 5 * time.Microsecond, WallDur: time.Millisecond, Value: 3},
		{Kind: KindRCRelax, Proc: 2, Step: 9, Virt: time.Second, VirtDur: 250 * time.Millisecond},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d spans, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("span %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	spans := []Span{
		{Kind: KindRCStep, Proc: -1, Step: 1, Wall: time.Millisecond, WallDur: 2 * time.Millisecond, Virt: time.Second, VirtDur: time.Second},
		{Kind: KindRCRelax, Proc: 0, Step: 1, Wall: time.Millisecond, WallDur: time.Millisecond},
	}
	for _, virtual := range []bool{false, true} {
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, spans, virtual); err != nil {
			t.Fatal(err)
		}
		var all, events []map[string]any
		if err := json.Unmarshal(buf.Bytes(), &all); err != nil {
			t.Fatalf("virtual=%v: not valid JSON: %v\n%s", virtual, err, buf.String())
		}
		// The rank's process_name metadata leads; the spans follow.
		if all[0]["ph"] != "M" || all[0]["name"] != "process_name" || all[0]["pid"].(float64) != 1 {
			t.Fatalf("unexpected lane metadata: %v", all[0])
		}
		for _, ev := range all {
			if ev["ph"] == "X" {
				events = append(events, ev)
			}
		}
		if len(events) != 2 {
			t.Fatalf("got %d X events, want 2", len(events))
		}
		if events[0]["ph"] != "X" || events[0]["name"] != "rc-step" {
			t.Fatalf("unexpected first event: %v", events[0])
		}
		// Engine-wide span lands on tid 0, proc 0 on tid 1.
		if events[0]["tid"].(float64) != 0 || events[1]["tid"].(float64) != 1 {
			t.Fatalf("tid mapping wrong: %v / %v", events[0]["tid"], events[1]["tid"])
		}
		wantTS := 1000.0 // 1ms in µs
		if virtual {
			wantTS = 1e6 // 1s in µs
		}
		if got := events[0]["ts"].(float64); got != wantTS {
			t.Fatalf("virtual=%v ts = %v, want %v", virtual, got, wantTS)
		}
	}
}

func TestImbalance(t *testing.T) {
	cases := []struct {
		busy []time.Duration
		want float64
	}{
		{nil, 1},
		{[]time.Duration{0, 0}, 1},
		{[]time.Duration{100, 100}, 1},
		{[]time.Duration{300 * time.Microsecond, 100 * time.Microsecond}, 1.5},
		{[]time.Duration{4, 0, 0, 0}, 4},
	}
	for _, c := range cases {
		if got := Imbalance(c.busy); got != c.want {
			t.Fatalf("Imbalance(%v) = %v, want %v", c.busy, got, c.want)
		}
	}
}

func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("aa_events_total", "Events seen.", Labels("outcome", "admitted"))
	c.Add(5)
	r.Counter("aa_events_total", "Events seen.", Labels("outcome", "rejected")).Inc()
	g := r.Gauge("aa_queue_depth", "Pending events.", "")
	g.SetInt(3)
	r.GaugeFunc("aa_up", "Always one.", "", func() float64 { return 1 })
	h := r.Histogram("aa_latency_seconds", "Latency.", Labels("route", "topk"), []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	text := r.Render()
	for _, want := range []string{
		"# HELP aa_events_total Events seen.",
		"# TYPE aa_events_total counter",
		`aa_events_total{outcome="admitted"} 5`,
		`aa_events_total{outcome="rejected"} 1`,
		"# TYPE aa_queue_depth gauge",
		"aa_queue_depth 3",
		"aa_up 1",
		"# TYPE aa_latency_seconds histogram",
		`aa_latency_seconds_bucket{route="topk",le="0.01"} 1`,
		`aa_latency_seconds_bucket{route="topk",le="0.1"} 2`,
		`aa_latency_seconds_bucket{route="topk",le="+Inf"} 3`,
		`aa_latency_seconds_sum{route="topk"} 5.055`,
		`aa_latency_seconds_count{route="topk"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered text missing %q:\n%s", want, text)
		}
	}
}

func TestRegistryHistogramNoLabels(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("aa_step_seconds", "Step wall time.", "", []float64{1})
	h.Observe(0.5)
	text := r.Render()
	for _, want := range []string{
		`aa_step_seconds_bucket{le="1"} 1`,
		`aa_step_seconds_bucket{le="+Inf"} 1`,
		"aa_step_seconds_sum 0.5",
		"aa_step_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered text missing %q:\n%s", want, text)
		}
	}
}

func TestLabelsEscaping(t *testing.T) {
	got := Labels("path", `a"b\c`)
	want := `{path="a\"b\\c"}`
	if got != want {
		t.Fatalf("Labels = %s, want %s", got, want)
	}
}
