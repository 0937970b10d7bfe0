package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is usable, so
// counters embed directly in structs (serve.Counters keeps its field layout).
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n must be >= 0; negative deltas are the
// caller's bug and are applied as-is to keep the hot path branch-free).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative-style buckets and keeps
// the running sum, rendered in the Prometheus histogram convention
// (_bucket{le=...}, _sum, _count). Bounds must be ascending; a +Inf bucket is
// implicit.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is the overflow (+Inf) bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram builds a histogram with the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
}

// DefaultLatencyBounds covers request latencies from 100µs to ~10s in
// roughly powers of ~3, in seconds.
var DefaultLatencyBounds = []float64{
	0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10,
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// metricType is the Prometheus TYPE of a family.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// sample is one labeled series within a family. Exactly one of the value
// sources is set.
type sample struct {
	labels    string // rendered label set, e.g. `{proc="0"}`, or ""
	counter   *Counter
	gauge     *Gauge
	gaugeFn   func() float64
	counterFn func() float64
	hist      *Histogram
}

// family is one metric name with its HELP/TYPE header and series.
type family struct {
	name    string
	help    string
	typ     metricType
	samples []sample
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration happens at construction time; Render may
// be called concurrently with metric updates.
type Registry struct {
	mu       sync.Mutex
	families []*family
	index    map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]*family{}}
}

func (r *Registry) familyFor(name, help string, typ metricType) *family {
	f, ok := r.index[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.index[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	return f
}

// Labels renders a label set in registration order, e.g. Labels("proc", "0").
// Pairs must alternate name, value.
func Labels(pairs ...string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("obs: Labels needs name/value pairs")
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(pairs[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Counter registers (or extends) a counter family and returns a new counter
// for the given label set.
func (r *Registry) Counter(name, help, labels string) *Counter {
	c := &Counter{}
	r.RegisterCounter(c, name, help, labels)
	return c
}

// RegisterCounter attaches an existing counter (e.g. a serve.Counters field)
// to the registry under name+labels.
func (r *Registry) RegisterCounter(c *Counter, name, help, labels string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, typeCounter)
	f.samples = append(f.samples, sample{labels: labels, counter: c})
}

// Gauge registers a gauge series and returns it.
func (r *Registry) Gauge(name, help, labels string) *Gauge {
	g := &Gauge{}
	r.RegisterGauge(g, name, help, labels)
	return g
}

// RegisterGauge attaches an existing gauge to the registry.
func (r *Registry) RegisterGauge(g *Gauge, name, help, labels string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, typeGauge)
	f.samples = append(f.samples, sample{labels: labels, gauge: g})
}

// GaugeFunc registers a gauge whose value is pulled at render time. fn must
// be safe to call from the scrape goroutine.
func (r *Registry) GaugeFunc(name, help, labels string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, typeGauge)
	f.samples = append(f.samples, sample{labels: labels, gaugeFn: fn})
}

// CounterFunc registers a counter whose value is pulled at render time —
// for totals derived from another component's counters (e.g. engine metric
// snapshots rebased across restarts). fn must be safe to call from the
// scrape goroutine and must be monotone non-decreasing.
func (r *Registry) CounterFunc(name, help, labels string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, typeCounter)
	f.samples = append(f.samples, sample{labels: labels, counterFn: fn})
}

// Histogram registers a histogram series with the given bucket bounds.
func (r *Registry) Histogram(name, help, labels string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, typeHistogram)
	f.samples = append(f.samples, sample{labels: labels, hist: h})
	return h
}

// WriteTo renders every family in the Prometheus text exposition format.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, s := range f.samples {
			switch {
			case s.counter != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.counter.Load())
			case s.gauge != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.gauge.Load()))
			case s.gaugeFn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.gaugeFn()))
			case s.counterFn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.counterFn()))
			case s.hist != nil:
				writeHistogram(&b, f.name, s.labels, s.hist)
			}
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Render returns the full exposition as a string.
func (r *Registry) Render() string {
	var sb strings.Builder
	r.WriteTo(&sb) // strings.Builder never errors
	return sb.String()
}

func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	// Bucket label sets merge the series labels with le="...".
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	prefix := "{"
	if inner != "" {
		prefix = "{" + inner + ","
	}
	var cum int64
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s_bucket%sle=\"%s\"} %d\n", name, prefix, formatFloat(bound), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%sle=\"+Inf\"} %d\n", name, prefix, cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, h.Count())
}

// formatFloat renders floats the way Prometheus clients expect: integers
// without an exponent, everything else in shortest round-trip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// ParseText parses a Prometheus text exposition (the format WriteTo emits)
// into a flat map keyed by the full sample name including any label set,
// e.g. `aa_proc_rows{proc="0"}`: the flat view of ParseFamilies. The
// inverse of Render, for test scrapes and the stdlib-only serve client.
func ParseText(r io.Reader) (map[string]float64, error) {
	fams, err := ParseFamilies(r)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			out[s.Key()] = s.Value
		}
	}
	return out, nil
}
