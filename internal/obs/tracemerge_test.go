package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// rankTrace builds a synthetic per-rank trace: `steps` rc-step spans of
// `stepDur` each starting at `firstStep`, with the file's private wall
// epoch shifted by `skew` (each real process starts its tracer at a
// different instant — that skew is what MergeTraces must cancel).
func rankTrace(rank int32, firstStep, steps int32, stepDur, skew time.Duration) []Span {
	var out []Span
	for i := int32(0); i < steps; i++ {
		start := skew + time.Duration(i)*stepDur
		out = append(out,
			Span{Kind: KindRCShip, Proc: rank, Rank: rank, Step: firstStep + i, Wall: start, WallDur: stepDur / 4, Value: 100},
			Span{Kind: KindRCRelax, Proc: rank, Rank: rank, Step: firstStep + i, Wall: start + stepDur/4, WallDur: stepDur / 2},
			Span{Kind: KindRCStep, Proc: rank, Rank: rank, Step: firstStep + i, Wall: start, WallDur: stepDur},
		)
	}
	return out
}

// TestMergeTracesAlignsOnSteps checks that files with arbitrary epoch skew
// land on one timeline where every rank's step-K rc-step span starts at the
// same merged offset.
func TestMergeTracesAlignsOnSteps(t *testing.T) {
	ms := time.Millisecond
	files := [][]Span{
		rankTrace(0, 0, 4, 10*ms, 0),
		rankTrace(1, 0, 4, 10*ms, 700*ms), // same steps, wildly skewed epoch
		rankTrace(2, 0, 4, 10*ms, 330*ms),
	}
	merged := MergeTraces(files)
	if len(merged) != 3*4*3 {
		t.Fatalf("merged spans = %d, want 36", len(merged))
	}
	anchor := map[int32]time.Duration{}
	for _, s := range merged {
		if s.Kind != KindRCStep {
			continue
		}
		if w, ok := anchor[s.Step]; ok {
			if w != s.Wall {
				t.Errorf("step %d rc-step anchors diverge: %v vs %v (rank %d)", s.Step, w, s.Wall, s.Rank)
			}
		} else {
			anchor[s.Step] = s.Wall
		}
	}
	if merged[0].Wall != 0 {
		t.Errorf("merged timeline must start at 0, got %v", merged[0].Wall)
	}
}

// TestMergeTracesRejoinSegment models a SIGKILL→rejoin episode: rank 2's
// relaunched process produces a second trace file whose step counter was
// restored from the rejoin-go payload but whose wall epoch is fresh. The
// merge must place the rejoin segment at the survivors' wall position for
// those steps, reading as one timeline.
func TestMergeTracesRejoinSegment(t *testing.T) {
	ms := time.Millisecond
	survivor0 := rankTrace(0, 0, 8, 10*ms, 0)
	survivor1 := rankTrace(1, 0, 8, 10*ms, 250*ms)
	victim := rankTrace(2, 0, 3, 10*ms, 40*ms)     // killed after step 2
	rejoin := rankTrace(2, 5, 3, 10*ms, 2*1000*ms) // relaunched at step 5, fresh epoch
	merged := MergeTraces([][]Span{survivor0, survivor1, victim, rejoin})

	byStep := map[int32]time.Duration{}
	for _, s := range merged {
		if s.Kind == KindRCStep && s.Rank == 0 {
			byStep[s.Step] = s.Wall
		}
	}
	for _, s := range merged {
		if s.Kind != KindRCStep || s.Rank != 2 {
			continue
		}
		if want, ok := byStep[s.Step]; !ok || s.Wall != want {
			t.Errorf("rank 2 step %d at %v, survivor anchor %v", s.Step, s.Wall, want)
		}
	}
}

// TestMergeTracesDeterministic checks the satellite requirement: merging
// the same files in any argument order yields byte-identical Chrome output
// (same lane order, same span order).
func TestMergeTracesDeterministic(t *testing.T) {
	ms := time.Millisecond
	a := rankTrace(0, 0, 5, 10*ms, 0)
	b := rankTrace(1, 0, 5, 10*ms, 123*ms)
	c := rankTrace(2, 2, 3, 10*ms, 999*ms) // late joiner
	orders := [][][]Span{
		{a, b, c}, {c, b, a}, {b, c, a}, {c, a, b},
	}
	var first []byte
	for i, files := range orders {
		merged := MergeTraces(files)
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, merged, false); err != nil {
			t.Fatalf("chrome export: %v", err)
		}
		if i == 0 {
			first = append([]byte(nil), buf.Bytes()...)
			continue
		}
		if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("order %d produced different merged trace", i)
		}
	}
	// Lane metadata: one process_name per rank.
	for _, rank := range []string{`"rank 0"`, `"rank 1"`, `"rank 2"`} {
		if !strings.Contains(string(first), rank) {
			t.Errorf("merged chrome trace missing lane %s", rank)
		}
	}
}

// TestMergeTracesJSONLRoundTrip checks rank survives the JSONL wire form,
// so per-rank files written by real processes carry the lane key.
func TestMergeTracesJSONLRoundTrip(t *testing.T) {
	spans := rankTrace(3, 0, 2, time.Millisecond, 0)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, spans); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(got) != len(spans) {
		t.Fatalf("spans = %d, want %d", len(got), len(spans))
	}
	for i := range got {
		if got[i] != spans[i] {
			t.Fatalf("span %d round-trip mismatch: %+v vs %+v", i, got[i], spans[i])
		}
	}
}
