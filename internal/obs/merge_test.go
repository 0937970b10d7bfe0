package obs

import (
	"strings"
	"testing"
)

// buildRegistry assembles a registry exercising every family type with and
// without labels — the shapes the cluster merge path must survive.
func buildRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("aa_events_total", "Events.", "")
	c.Add(7)
	g := r.Gauge("aa_rank_step", "Step.", Labels("rank", "0"))
	g.SetInt(42)
	g2 := r.Gauge("aa_rank_step_busy_seconds", "Busy.", Labels("rank", "0"))
	g2.Set(0.125)
	h := r.Histogram("aa_latency_seconds", "Latency.", Labels("route", "topk"), []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(2.5)
	return r
}

// TestParseTextRoundTrip checks ParseText is the exact flat inverse of
// Render for histograms and labeled series: every rendered sample line maps
// to one key with its value.
func TestParseTextRoundTrip(t *testing.T) {
	r := buildRegistry()
	text := r.Render()
	m, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	want := map[string]float64{
		"aa_events_total":                                   7,
		`aa_rank_step{rank="0"}`:                            42,
		`aa_rank_step_busy_seconds{rank="0"}`:               0.125,
		`aa_latency_seconds_bucket{route="topk",le="0.01"}`: 1,
		`aa_latency_seconds_bucket{route="topk",le="0.1"}`:  2,
		`aa_latency_seconds_bucket{route="topk",le="1"}`:    2,
		`aa_latency_seconds_bucket{route="topk",le="+Inf"}`: 3,
		`aa_latency_seconds_sum{route="topk"}`:              2.555,
		`aa_latency_seconds_count{route="topk"}`:            3,
	}
	if len(m) != len(want) {
		t.Fatalf("sample count = %d, want %d\n%s", len(m), len(want), text)
	}
	for k, v := range want {
		got, ok := m[k]
		if !ok {
			t.Fatalf("missing sample %q in\n%s", k, text)
		}
		if got != v {
			t.Errorf("%s = %g, want %g", k, got, v)
		}
	}
}

// TestParseFamiliesRoundTrip checks the structured parse → render loop is
// stable: parsing the rendered form again yields identical families, and
// histogram buckets stay attached to their family.
func TestParseFamiliesRoundTrip(t *testing.T) {
	r := buildRegistry()
	text := r.Render()
	fams, err := ParseFamilies(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseFamilies: %v", err)
	}
	if len(fams) != 4 {
		t.Fatalf("families = %d, want 4: %+v", len(fams), fams)
	}
	var hist *TextFamily
	for i := range fams {
		if fams[i].Name == "aa_latency_seconds" {
			hist = &fams[i]
		}
	}
	if hist == nil || hist.Type != "histogram" {
		t.Fatalf("histogram family missing or untyped: %+v", fams)
	}
	if len(hist.Samples) != 6 { // 4 buckets + sum + count
		t.Fatalf("histogram samples = %d, want 6: %+v", len(hist.Samples), hist.Samples)
	}

	var sb strings.Builder
	if err := WriteFamilies(&sb, fams); err != nil {
		t.Fatalf("WriteFamilies: %v", err)
	}
	again, err := ParseFamilies(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	var sb2 strings.Builder
	if err := WriteFamilies(&sb2, again); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if sb.String() != sb2.String() {
		t.Errorf("render not stable under round-trip:\n--- first\n%s\n--- second\n%s", sb.String(), sb2.String())
	}
}

func TestInjectLabel(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", `{rank="2"}`},
		{`{le="0.1"}`, `{rank="2",le="0.1"}`},
		{`{route="topk",le="+Inf"}`, `{rank="2",route="topk",le="+Inf"}`},
		// Already rank-labeled series pass through unchanged.
		{`{rank="2"}`, `{rank="2"}`},
		{`{rank="0",peer="1"}`, `{rank="0",peer="1"}`},
		{`{peer="1",rank="0"}`, `{peer="1",rank="0"}`},
		// A label merely suffixed with the key is still injected.
		{`{peer_rank="1"}`, `{rank="2",peer_rank="1"}`},
	}
	for _, c := range cases {
		if got := InjectLabel(c.in, "rank", "2"); got != c.want {
			t.Errorf("InjectLabel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestMergeFamiliesKeepsOrderAndHeaders(t *testing.T) {
	a := []TextFamily{
		{Name: "aa_x", Help: "X.", Type: "gauge", Samples: []TextSample{{Name: "aa_x", Labels: `{rank="0"}`, Value: 1}}},
	}
	b := []TextFamily{
		{Name: "aa_y", Help: "Y.", Type: "counter", Samples: []TextSample{{Name: "aa_y", Labels: `{rank="1"}`, Value: 2}}},
		{Name: "aa_x", Help: "X.", Type: "gauge", Samples: []TextSample{{Name: "aa_x", Labels: `{rank="1"}`, Value: 3}}},
	}
	m := MergeFamilies(a, b)
	if len(m) != 2 || m[0].Name != "aa_x" || m[1].Name != "aa_y" {
		t.Fatalf("merge order wrong: %+v", m)
	}
	if len(m[0].Samples) != 2 {
		t.Fatalf("aa_x samples = %d, want 2", len(m[0].Samples))
	}
	var sb strings.Builder
	WriteFamilies(&sb, m)
	out := sb.String()
	if strings.Count(out, "# TYPE aa_x gauge") != 1 {
		t.Errorf("merged exposition must emit one TYPE header per family:\n%s", out)
	}
	m2, err := ParseFamilies(strings.NewReader(out))
	if err != nil || len(m2) != 2 {
		t.Errorf("merged exposition must reparse cleanly: %v, %+v", err, m2)
	}
}

// FuzzParseFamilies holds the exposition parser to its contract on
// arbitrary text: it never panics, and WriteFamilies ∘ ParseFamilies is
// stable — after one round the rendered text reaches a fixpoint, so merged
// output re-parses and re-renders to itself. Seeded with a real Registry
// exposition (counter, labeled gauges, histogram) and the irregular shapes
// the parser tolerates.
func FuzzParseFamilies(f *testing.F) {
	f.Add(buildRegistry().Render())
	f.Add("# HELP a\n# TYPE a\na 1\n")                              // short headers
	f.Add("x_sum 1\n# TYPE x histogram\nx_bucket{le=\"+Inf\"} 2\n") // sample before its header
	f.Add("a{l=\"v w\"} NaN\nb -Inf\nc 1e400\nd -0\n")              // spaced labels, special values
	f.Add("# bare comment\n\n  # TYPE  untyped\n{only=\"labels\"} 3\n")
	f.Add("a b\n")                                    // unparseable value
	f.Add("# TYPE h \nh_bucket 0\n0 0\nh_bucket 1\n") // untyped, help-less family owning a suffixed sample
	f.Add("s 0\n# TYPE q\ns_count 0\n")               // suffixed sample after a bare one
	render := func(t *testing.T, text string) (string, bool) {
		t.Helper()
		fams, err := ParseFamilies(strings.NewReader(text))
		if err != nil {
			return "", false
		}
		var b strings.Builder
		if err := WriteFamilies(&b, fams); err != nil {
			t.Fatalf("WriteFamilies: %v", err)
		}
		return b.String(), true
	}
	f.Fuzz(func(t *testing.T, text string) {
		once, ok := render(t, text)
		if !ok {
			return // rejected input: fine, as long as it did not panic
		}
		twice, ok := render(t, once)
		if !ok {
			t.Fatalf("rendered exposition does not parse:\n%s", once)
		}
		if twice != once {
			t.Fatalf("not a fixpoint after one round:\nonce:\n%s\ntwice:\n%s", once, twice)
		}
	})
}
