package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file is the text-level half of the cluster observability plane:
// parsing a Prometheus exposition back into structured families, injecting
// a rank label into every series, and re-rendering the merged result. The
// aggregator in agg.go composes these to republish N per-rank /metrics
// endpoints as one.

// TextSample is one parsed sample line: a metric name, its rendered label
// set (`{a="b"}` or ""), and the value. For histograms the _bucket/_sum/
// _count suffix stays in Name — the merge is purely textual, so cumulative
// bucket semantics survive untouched.
type TextSample struct {
	Name   string
	Labels string
	Value  float64
}

// Key returns the full series key, name plus rendered labels.
func (s TextSample) Key() string { return s.Name + s.Labels }

// TextFamily is one metric family parsed from an exposition: the HELP/TYPE
// header plus every sample that followed it.
type TextFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []TextSample
}

// ParseFamilies parses a Prometheus text exposition (the format Registry
// WriteTo emits) preserving family structure, order, and HELP/TYPE
// metadata — the structured inverse of Render, where ParseText is the flat
// one. Samples whose name extends the most recent family header (histogram
// _bucket/_sum/_count series) are attached to that family; a sample with
// no preceding header starts an untyped family of its own.
func ParseFamilies(r io.Reader) ([]TextFamily, error) {
	var fams []TextFamily
	index := map[string]int{} // family name -> fams slot
	cur := -1                 // most recent family slot
	headed := false           // cur was opened by a HELP/TYPE header

	ensure := func(name string) int {
		if i, ok := index[name]; ok {
			return i
		}
		fams = append(fams, TextFamily{Name: name, Type: "untyped"})
		index[name] = len(fams) - 1
		return len(fams) - 1
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 {
				continue // bare comment
			}
			switch fields[1] {
			case "HELP":
				i := ensure(fields[2])
				if len(fields) == 4 {
					fams[i].Help = fields[3]
				}
				cur, headed = i, true
			case "TYPE":
				i := ensure(fields[2])
				if len(fields) == 4 {
					fams[i].Type = fields[3]
				}
				cur, headed = i, true
			}
			continue
		}
		// Sample line: value after the last space (label values may contain
		// spaces), labels between the first '{' and its closing '}'.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("obs: unparseable metric line %q", line)
		}
		series := strings.TrimSpace(line[:sp])
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("obs: metric %q: %w", series, err)
		}
		name, labels := series, ""
		if b := strings.IndexByte(series, '{'); b >= 0 {
			name, labels = series[:b], series[b:]
		}
		// Attach to the open family when the sample belongs to it: its
		// exact name, or — under a header only — a histogram-suffixed
		// extension of it. A family opened by a bare sample does not
		// collect suffixed series, so a header WriteFamilies omits cannot
		// change where a sample lands on re-parse.
		slot := -1
		if cur >= 0 {
			fn := fams[cur].Name
			if name == fn || (headed && strings.HasPrefix(name, fn) &&
				(name == fn+"_bucket" || name == fn+"_sum" || name == fn+"_count")) {
				slot = cur
			}
		}
		if slot < 0 {
			slot = ensure(name)
			cur, headed = slot, false
		}
		fams[slot].Samples = append(fams[slot].Samples, TextSample{Name: name, Labels: labels, Value: v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return fams, nil
}

// InjectLabel returns the rendered label set with key="value" prepended,
// e.g. InjectLabel(`{le="0.1"}`, "rank", "2") == `{rank="2",le="0.1"}` and
// InjectLabel("", "rank", "2") == `{rank="2"}`. The aggregator uses it to
// namespace every scraped per-rank series. A label set that already binds
// the key (some rank series self-label with their rank) is returned
// unchanged — the source of truth is the exporting process.
func InjectLabel(labels, key, value string) string {
	if strings.HasPrefix(labels, "{"+key+`="`) || strings.Contains(labels, ","+key+`="`) {
		return labels
	}
	pair := key + `="` + escapeLabel(value) + `"`
	if labels == "" || labels == "{}" {
		return "{" + pair + "}"
	}
	return "{" + pair + "," + labels[1:]
}

// WriteFamilies renders families back into the Prometheus text exposition
// format, preserving order. The round-trip ParseFamilies -> WriteFamilies
// is stable, so merged output stays scrapeable by anything that accepted
// the per-rank originals. A family's HELP/TYPE header is omitted only when
// it carries nothing — untyped, no help — and every sample bears the
// family's own name: a suffixed sample (a histogram's _bucket/_sum/_count)
// finds its family on re-parse only through the header.
func WriteFamilies(w io.Writer, fams []TextFamily) error {
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		header := f.Help != "" || f.Type != "untyped"
		for _, s := range f.Samples {
			header = header || s.Name != f.Name
		}
		if header {
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		}
		for _, s := range f.Samples {
			fmt.Fprintf(bw, "%s%s %s\n", s.Name, s.Labels, formatFloat(s.Value))
		}
	}
	return bw.Flush()
}

// MergeFamilies merges per-rank family lists into one exposition, keyed by
// family name in first-seen order. Inputs are expected to already carry
// distinguishing labels (see InjectLabel); samples are concatenated in
// input order, and the first non-empty HELP/TYPE wins.
func MergeFamilies(inputs ...[]TextFamily) []TextFamily {
	var out []TextFamily
	index := map[string]int{}
	for _, fams := range inputs {
		for _, f := range fams {
			i, ok := index[f.Name]
			if !ok {
				out = append(out, TextFamily{Name: f.Name, Help: f.Help, Type: f.Type})
				i = len(out) - 1
				index[f.Name] = i
			}
			if out[i].Help == "" {
				out[i].Help = f.Help
			}
			if out[i].Type == "untyped" && f.Type != "" {
				out[i].Type = f.Type
			}
			out[i].Samples = append(out[i].Samples, f.Samples...)
		}
	}
	return out
}
