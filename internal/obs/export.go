package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// spanJSON is the JSONL wire form of a Span. Durations are nanoseconds;
// the kind travels by name so traces stay readable and stable across
// Kind renumbering.
type spanJSON struct {
	Kind    string `json:"kind"`
	Proc    int32  `json:"proc"`
	Rank    int32  `json:"rank,omitempty"`
	Step    int32  `json:"step"`
	Wall    int64  `json:"wall_ns"`
	WallDur int64  `json:"wall_dur_ns"`
	Virt    int64  `json:"virt_ns"`
	VirtDur int64  `json:"virt_dur_ns"`
	Value   int64  `json:"value,omitempty"`
}

// WriteJSONL writes the spans one JSON object per line.
func WriteJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(spanJSON{
			Kind:    s.Kind.String(),
			Proc:    s.Proc,
			Rank:    s.Rank,
			Step:    s.Step,
			Wall:    int64(s.Wall),
			WallDur: int64(s.WallDur),
			Virt:    int64(s.Virt),
			VirtDur: int64(s.VirtDur),
			Value:   s.Value,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL trace back into spans, skipping blank lines.
// Unknown kinds are an error: they indicate a trace from a newer build.
func ReadJSONL(r io.Reader) ([]Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []Span
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var sj spanJSON
		if err := json.Unmarshal(raw, &sj); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		k, ok := KindFromString(sj.Kind)
		if !ok {
			return nil, fmt.Errorf("line %d: unknown span kind %q", line, sj.Kind)
		}
		out = append(out, Span{
			Kind:    k,
			Proc:    sj.Proc,
			Rank:    sj.Rank,
			Step:    sj.Step,
			Wall:    time.Duration(sj.Wall),
			WallDur: time.Duration(sj.WallDur),
			Virt:    time.Duration(sj.Virt),
			VirtDur: time.Duration(sj.VirtDur),
			Value:   sj.Value,
		})
	}
	return out, sc.Err()
}

// chromeEvent is one Chrome trace-event: an "X" complete event or an "M"
// metadata event. Timestamps and durations are microseconds per the
// trace-event spec.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders spans as a Chrome trace-event JSON array,
// loadable in chrome://tracing or Perfetto, with one process lane per rank:
// pid = Rank+1 (named "rank N" by process_name metadata ahead of the rank's
// first span), tid = Proc+1 within it, so engine-wide spans (Proc == -1)
// sort first and a merged multi-rank trace (see MergeTraces) reads as N
// aligned lanes. When virtualClock is true the timeline is the LogP virtual
// clock (the paper's axis) and each event's args carry its wall time
// (wall_us); otherwise the timeline is wall time since the tracer epoch and
// the args carry the virtual time (virt_us).
func WriteChromeTrace(w io.Writer, spans []Span, virtualClock bool) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	first := true
	emit := func(ev chromeEvent) error {
		if !first {
			if _, err := bw.WriteString(","); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(ev) // Encode appends the newline
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	seen := map[int32]bool{}
	for _, s := range spans {
		if !seen[s.Rank] {
			seen[s.Rank] = true
			if err := emit(chromeEvent{
				Name:  "process_name",
				Phase: "M",
				PID:   int(s.Rank) + 1,
				Args:  map[string]any{"name": fmt.Sprintf("rank %d", s.Rank)},
			}); err != nil {
				return err
			}
		}
		ev := chromeEvent{
			Name:  s.Kind.String(),
			Phase: "X",
			TS:    us(s.Wall),
			Dur:   us(s.WallDur),
			PID:   int(s.Rank) + 1,
			TID:   int(s.Proc) + 1,
			Args:  map[string]any{"step": s.Step, "value": s.Value},
		}
		if virtualClock {
			ev.TS, ev.Dur = us(s.Virt), us(s.VirtDur)
			ev.Args["wall_us"] = us(s.Wall)
		} else {
			ev.Args["virt_us"] = us(s.Virt)
		}
		if err := emit(ev); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteFileAtomic is the one durable file writer: write's output is staged
// at path+".tmp", fsynced, closed and renamed over path, and the temp file
// is removed on any failure. A crash at any point therefore leaves either
// the previous complete file or the new one at path — never a torn file.
// Engine checkpoints and JSONL traces (a supervisor may collect them after
// a SIGKILL) are written through it.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
