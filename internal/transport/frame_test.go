package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"anytime/internal/change"
	"anytime/internal/dv"
	"anytime/internal/graph"
	"anytime/internal/kernel"
)

func TestFrameRoundTrip(t *testing.T) {
	in := frame{Tag: TagBoundaryDV, Kind: payloadDeltas, From: 3, To: 7, Seq: 42, Body: []byte("payload bytes")}
	buf := appendFrame(nil, in)
	if len(buf) != headerLen+len(in.Body)+trailerLen {
		t.Fatalf("frame length %d, want %d", len(buf), headerLen+len(in.Body)+trailerLen)
	}
	out, err := readOne(bytes.NewReader(buf), 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Tag != in.Tag || out.Kind != in.Kind || out.From != in.From || out.To != in.To || out.Seq != in.Seq {
		t.Fatalf("header mismatch: %+v vs %+v", out, in)
	}
	if !bytes.Equal(out.Body, in.Body) {
		t.Fatalf("body mismatch: %q vs %q", out.Body, in.Body)
	}
}

// Any single corrupted byte must be detected, and the corrupt frame must be
// consumed whole so the frame that follows still parses.
func TestFrameCorruptionDetectedAndSkipped(t *testing.T) {
	first := appendFrame(nil, frame{Tag: TagControl, From: 0, To: 1, Body: []byte("first")})
	second := appendFrame(nil, frame{Tag: TagControl, From: 0, To: 1, Seq: 1, Body: []byte("second")})
	for i := range first {
		stream := append([]byte(nil), first...)
		stream[i] ^= 0x40
		stream = append(stream, second...)
		r := bytes.NewReader(stream)
		if _, err := readOne(r, 0); err == nil {
			t.Fatalf("flip at byte %d not detected", i)
		} else if errors.Is(err, ErrCorruptFrame) {
			// CRC-detected: the stream must still be in sync.
			f, err := readOne(r, 0)
			if err != nil || !bytes.Equal(f.Body, []byte("second")) {
				t.Fatalf("flip at byte %d desynced the stream: %v", i, err)
			}
		}
		// Flips in the magic/length land on hard errors; that tears the
		// stream by design (the reader cannot trust the framing).
	}
}

func TestFrameTooLargeRejected(t *testing.T) {
	buf := appendFrame(nil, frame{Tag: TagControl, Body: make([]byte, 2048)})
	if _, err := readOne(bytes.NewReader(buf), 1024); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameTornStream(t *testing.T) {
	buf := appendFrame(nil, frame{Tag: TagControl, Body: []byte("abcdef")})
	if _, err := readOne(bytes.NewReader(buf[:len(buf)-3]), 0); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
}

func sampleDeltas() []*dv.Delta {
	return []*dv.Delta{
		{Owner: 0, Lo: 0, D: nil},                                     // empty window
		{Owner: 5, Lo: 3, D: []graph.Dist{1, 2, graph.InfDist}},       // partial window
		{Owner: 9, Lo: 0, D: []graph.Dist{0, 7, 7, 9, graph.InfDist}}, // full row
	}
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	ds := sampleDeltas()
	enc := appendDeltas(nil, ds)
	if len(enc) != EncodedDeltaBytes(ds) {
		t.Fatalf("encoded %d bytes, accounted %d", len(enc), EncodedDeltaBytes(ds))
	}
	wire := 0
	for _, d := range ds {
		wire += d.WireBytes()
	}
	if len(enc) != wire {
		t.Fatalf("encoded %d bytes, WireBytes sum %d", len(enc), wire)
	}
	got, err := decodeDeltas(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ds) {
		t.Fatalf("decoded %d deltas, want %d", len(got), len(ds))
	}
	for i, d := range ds {
		g := got[i]
		if g.Owner != d.Owner || g.Lo != d.Lo || len(g.D) != len(d.D) {
			t.Fatalf("delta %d header mismatch: %+v vs %+v", i, g, d)
		}
		for j := range d.D {
			if g.D[j] != d.D[j] {
				t.Fatalf("delta %d dist %d: %d vs %d", i, j, g.D[j], d.D[j])
			}
		}
	}
}

func TestDecodeDeltasRejectsTruncation(t *testing.T) {
	enc := appendDeltas(nil, sampleDeltas())
	for _, cut := range []int{1, 11, 13, len(enc) - 1} {
		if _, err := decodeDeltas(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes not rejected", cut)
		}
	}
}

// readOne reads one frame into a fresh buffer.
func readOne(r io.Reader, maxBytes int) (frame, error) {
	f, _, err := readFrame(r, nil, maxBytes)
	return f, err
}

func TestEncodePayloadTypes(t *testing.T) {
	evs := []change.Event{{EdgeAdds: []change.EdgeAdd{{U: 1, V: 2, Weight: 3}}}}
	evBody, err := EncodeEvents(evs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		payload interface{}
		kind    uint8
		body    []byte
	}{
		{nil, payloadRaw, nil},
		{[]byte("x"), payloadRaw, []byte("x")},
		{sampleDeltas(), payloadDeltas, appendDeltas(nil, sampleDeltas())},
		{evs, payloadEvents, evBody},
	} {
		buf, err := appendMessageFrame([]byte("prefix"), frame{Tag: TagControl, From: 1, To: 2, Seq: 3}, c.payload)
		if err != nil {
			t.Fatalf("%T payload: %v", c.payload, err)
		}
		if string(buf[:6]) != "prefix" {
			t.Fatalf("%T payload: prefix overwritten", c.payload)
		}
		f, err := readOne(bytes.NewReader(buf[6:]), 0)
		if err != nil || f.Kind != c.kind || !bytes.Equal(f.Body, c.body) || f.Seq != 3 {
			t.Fatalf("%T payload: frame %+v err=%v, want kind %d body %v", c.payload, f, err, c.kind, c.body)
		}
	}
	if _, err := appendMessageFrame(nil, frame{}, 42); err == nil {
		t.Fatal("int payload not rejected")
	}
	if _, err := decodePayload(99, nil); err == nil {
		t.Fatal("unknown payload kind not rejected")
	}
}

// decodeDeltas allocates per frame, not per delta: the Delta structs, their
// pointers, one distance arena and one frontier arena.
func TestDecodeDeltasAllocsPerFrame(t *testing.T) {
	for _, n := range []int{1, 200, 2000} {
		ds := make([]*dv.Delta, n)
		for i := range ds {
			ds[i] = &dv.Delta{Owner: int32(i), Lo: 64, D: make([]graph.Dist, 100), F: kernel.Bitset{1, 2}}
		}
		body := appendDeltas(nil, ds)
		if got := testing.AllocsPerRun(10, func() { decodeDeltas(body) }); got > 4 {
			t.Fatalf("%d deltas: %v allocations per decode, want <= 4", n, got)
		}
	}
}

// Encoding a message into a warmed send buffer allocates no frame.
func TestMessageFrameWarmBufferNoAlloc(t *testing.T) {
	payloads := []interface{}{
		sampleDeltas(),
		[]byte("control"),
		[]change.Event{{EdgeAdds: []change.EdgeAdd{{U: 1, V: 2, Weight: 3}}}},
		nil,
	}
	buf := make([]byte, 0, 1<<10)
	for _, p := range payloads {
		got := testing.AllocsPerRun(10, func() {
			buf, _ = appendMessageFrame(buf[:0], frame{Tag: TagBoundaryDV, From: 0, To: 1}, p)
		})
		if got != 0 {
			t.Fatalf("%T payload: %v allocations per encode into a warm buffer", p, got)
		}
	}
}
