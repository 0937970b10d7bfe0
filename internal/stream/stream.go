// Package stream models the paper's motivating setting — a network that
// keeps changing while the analysis runs — as replayable, timestamped
// dynamic-graph event streams: vertices joining (with their edges), new
// relationships forming, weights drifting, edges and vertices departing.
// Streams can be generated synthetically (growth with churn), serialized
// to a line-oriented text format, and replayed into the engine in time
// windows, each window becoming one recombination-step change event.
package stream

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"anytime/internal/graph"
)

// Kind enumerates the dynamic event kinds.
type Kind uint8

const (
	// AddVertex introduces vertex U (IDs must be dense and increasing).
	AddVertex Kind = iota
	// AddEdge adds edge {U, V} with weight W. Either endpoint may be a
	// vertex introduced earlier in the stream.
	AddEdge
	// SetWeight changes the weight of existing edge {U, V} to W.
	SetWeight
	// DelEdge removes edge {U, V}.
	DelEdge
	// DelVertex removes vertex U with all incident edges.
	DelVertex
)

func (k Kind) String() string {
	switch k {
	case AddVertex:
		return "addv"
	case AddEdge:
		return "adde"
	case SetWeight:
		return "setw"
	case DelEdge:
		return "dele"
	case DelVertex:
		return "delv"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind parses the textual event-kind names used by the stream text
// format and the serving layer's JSON wire format.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "addv":
		return AddVertex, nil
	case "adde":
		return AddEdge, nil
	case "setw":
		return SetWeight, nil
	case "dele":
		return DelEdge, nil
	case "delv":
		return DelVertex, nil
	default:
		return 0, fmt.Errorf("stream: unknown event kind %q", s)
	}
}

// Event is one timestamped change.
type Event struct {
	Time int64 // logical timestamp, non-decreasing within a stream
	Kind Kind
	U, V int32
	W    graph.Weight
}

// Stream is an ordered sequence of events over a base graph of BaseN
// vertices (the graph that exists before the stream starts).
type Stream struct {
	BaseN  int
	Events []Event
}

// Validate checks ordering, ID density and reference validity by dry-run.
func (s *Stream) Validate() error {
	if s.BaseN < 0 {
		return fmt.Errorf("stream: negative base size")
	}
	for i := 1; i < len(s.Events); i++ {
		if s.Events[i].Time < s.Events[i-1].Time {
			return fmt.Errorf("%w: event %d out of time order", ErrInvalidEvent, i)
		}
	}
	_, _, err := Check(s.Events, s.BaseN, nil)
	return err
}

// ErrInvalidEvent is wrapped by every per-event rejection of Validate and
// Check.
var ErrInvalidEvent = errors.New("stream: invalid event")

// Check dry-runs evs against a graph shape of n vertices of which the ones
// in deleted are gone: a join must take the next dense ID, a pair must name
// two distinct live vertices, a weight must be positive. It returns the
// vertex count after evs and the vertices evs delete (nil if none), and
// never writes to deleted.
func Check(evs []Event, n int, deleted map[int32]bool) (int, map[int32]bool, error) {
	var newly map[int32]bool
	gone := func(v int32) bool { return deleted[v] || newly[v] }
	reject := func(i int, why string) (int, map[int32]bool, error) {
		return 0, nil, fmt.Errorf("%w: event %d %s", ErrInvalidEvent, i, why)
	}
	for i, ev := range evs {
		switch ev.Kind {
		case AddVertex:
			if int(ev.U) != n {
				return reject(i, fmt.Sprintf("adds vertex %d, expected next ID %d", ev.U, n))
			}
			n++
		case AddEdge, SetWeight, DelEdge:
			if ev.U < 0 || ev.V < 0 || int(ev.U) >= n || int(ev.V) >= n || ev.U == ev.V {
				return reject(i, fmt.Sprintf("references invalid pair {%d,%d}", ev.U, ev.V))
			}
			if gone(ev.U) || gone(ev.V) {
				return reject(i, "references deleted vertex")
			}
			if ev.Kind != DelEdge && ev.W <= 0 {
				return reject(i, "has non-positive weight")
			}
		case DelVertex:
			if ev.U < 0 || int(ev.U) >= n || gone(ev.U) {
				return reject(i, fmt.Sprintf("deletes invalid vertex %d", ev.U))
			}
			if newly == nil {
				newly = map[int32]bool{}
			}
			newly[ev.U] = true
		default:
			return reject(i, fmt.Sprintf("has unknown kind %d", ev.Kind))
		}
	}
	return n, newly, nil
}

// FinalN returns the vertex count after the whole stream applies.
func (s *Stream) FinalN() int {
	n := s.BaseN
	for _, ev := range s.Events {
		if ev.Kind == AddVertex {
			n++
		}
	}
	return n
}

// Apply replays the whole stream onto a plain graph (the sequential
// oracle's view). g must have exactly BaseN vertices.
func (s *Stream) Apply(g *graph.Graph) error {
	if g.NumVertices() != s.BaseN {
		return fmt.Errorf("stream: graph has %d vertices, stream base is %d", g.NumVertices(), s.BaseN)
	}
	for i, ev := range s.Events {
		var err error
		switch ev.Kind {
		case AddVertex:
			g.AddVertex()
		case AddEdge:
			_, err = g.AddOrLowerEdge(int(ev.U), int(ev.V), ev.W)
		case SetWeight:
			if g.HasEdge(int(ev.U), int(ev.V)) {
				if err = g.RemoveEdge(int(ev.U), int(ev.V)); err == nil {
					err = g.AddEdge(int(ev.U), int(ev.V), ev.W)
				}
			}
		case DelEdge:
			if g.HasEdge(int(ev.U), int(ev.V)) {
				err = g.RemoveEdge(int(ev.U), int(ev.V))
			}
		case DelVertex:
			for _, a := range append([]graph.Arc(nil), g.Neighbors(int(ev.U))...) {
				if err = g.RemoveEdge(int(ev.U), int(a.To)); err != nil {
					break
				}
			}
		}
		if err != nil {
			return fmt.Errorf("stream: applying event %d (%s): %w", i, ev.Kind, err)
		}
	}
	return nil
}

// Write serializes the stream as text:
//
//	base <BaseN>
//	<time> <kind> <u> [<v> <w>]
func Write(w io.Writer, s *Stream) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "base %d\n", s.BaseN); err != nil {
		return err
	}
	for _, ev := range s.Events {
		var err error
		switch ev.Kind {
		case AddVertex:
			_, err = fmt.Fprintf(bw, "%d %s %d\n", ev.Time, ev.Kind, ev.U)
		case DelVertex:
			_, err = fmt.Fprintf(bw, "%d %s %d\n", ev.Time, ev.Kind, ev.U)
		case DelEdge:
			_, err = fmt.Fprintf(bw, "%d %s %d %d\n", ev.Time, ev.Kind, ev.U, ev.V)
		default:
			_, err = fmt.Fprintf(bw, "%d %s %d %d %d\n", ev.Time, ev.Kind, ev.U, ev.V, ev.W)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses the format written by Write and validates the stream.
func Read(r io.Reader) (*Stream, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("stream: empty input")
	}
	s := &Stream{}
	if _, err := fmt.Sscanf(sc.Text(), "base %d", &s.BaseN); err != nil {
		return nil, fmt.Errorf("stream: bad header %q: %w", sc.Text(), err)
	}
	if s.BaseN < 0 || s.BaseN > graph.MaxParseVertices {
		return nil, fmt.Errorf("stream: implausible base size %d", s.BaseN)
	}
	line := 1
	for sc.Scan() {
		line++
		t := sc.Text()
		if len(t) == 0 || t[0] == '#' {
			continue
		}
		var ts int64
		var kindStr string
		if _, err := fmt.Sscanf(t, "%d %s", &ts, &kindStr); err != nil {
			return nil, fmt.Errorf("stream: line %d: %q: %w", line, t, err)
		}
		k, err := ParseKind(kindStr)
		if err != nil {
			return nil, fmt.Errorf("stream: line %d: %w", line, err)
		}
		ev := Event{Time: ts, Kind: k}
		switch k {
		case AddVertex, DelVertex:
			if _, err := fmt.Sscanf(t, "%d %s %d", &ts, &kindStr, &ev.U); err != nil {
				return nil, fmt.Errorf("stream: line %d: %w", line, err)
			}
		case DelEdge:
			if _, err := fmt.Sscanf(t, "%d %s %d %d", &ts, &kindStr, &ev.U, &ev.V); err != nil {
				return nil, fmt.Errorf("stream: line %d: %w", line, err)
			}
		default:
			var w int64
			if _, err := fmt.Sscanf(t, "%d %s %d %d %d", &ts, &kindStr, &ev.U, &ev.V, &w); err != nil {
				return nil, fmt.Errorf("stream: line %d: %w", line, err)
			}
			ev.W = graph.Weight(w)
		}
		s.Events = append(s.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Window groups events into half-open time windows of the given width,
// preserving order. Empty windows are skipped; each returned slice is a
// sub-slice of Events.
func (s *Stream) Window(width int64) [][]Event {
	if len(s.Events) == 0 {
		return nil
	}
	if width <= 0 {
		width = 1
	}
	var out [][]Event
	start := 0
	bucket := s.Events[0].Time / width
	for i, ev := range s.Events {
		b := ev.Time / width
		if b != bucket {
			out = append(out, s.Events[start:i])
			start = i
			bucket = b
		}
	}
	out = append(out, s.Events[start:])
	return out
}
