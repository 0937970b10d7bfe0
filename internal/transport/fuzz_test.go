package transport

import (
	"bytes"
	"errors"
	"testing"

	"anytime/internal/change"
	"anytime/internal/dv"
	"anytime/internal/gen"
	"anytime/internal/graph"
	"anytime/internal/kernel"
)

// FuzzDeltaCodec fuzzes the boundary-DV wire codec end to end: arbitrary
// bytes must never panic the decoder, anything it accepts must re-encode
// to the identical bytes (the codec is a bijection on its valid range),
// and a framed encoding must be rejected whenever any byte is flipped.
// The seed corpus pins the interesting shapes: empty windows, full rows,
// max-width rows, infinite distances.
func FuzzDeltaCodec(f *testing.F) {
	seed := func(ds []*dv.Delta) { f.Add(appendDeltas(nil, ds)) }
	seed(nil)
	seed([]*dv.Delta{{Owner: 0, Lo: 0, D: nil}}) // empty window
	seed([]*dv.Delta{{Owner: 3, Lo: 1, D: []graph.Dist{5}}})
	seed([]*dv.Delta{{Owner: 2, Lo: 0, D: []graph.Dist{0, 1, 2, graph.InfDist}}}) // full row
	wide := &dv.Delta{Owner: 7, Lo: 0, D: make([]graph.Dist, 512)}                // max-width row
	for i := range wide.D {
		wide.D[i] = graph.Dist(i % 97)
	}
	seed([]*dv.Delta{wide, {Owner: 8, Lo: 511, D: []graph.Dist{graph.InfDist}}})
	masked := &dv.Delta{Owner: 4, Lo: 64, D: make([]graph.Dist, 70), F: kernel.Bitset{0xdeadbeef, 1}} // frontier words
	seed([]*dv.Delta{masked})
	f.Add([]byte{0x0c, 0x00, 0x00, 0x00}) // truncated header
	f.Add(bytes.Repeat([]byte{0xff}, 40)) // negative headers

	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := decodeDeltas(data)
		if err != nil {
			return // rejected input: fine, as long as it did not panic
		}
		// Accepted: the re-encoding must reproduce the input bytes exactly
		// and the accounted size must match.
		enc := appendDeltas(nil, ds)
		if !bytes.Equal(enc, data) {
			t.Fatalf("roundtrip mismatch: in %d bytes, out %d bytes", len(data), len(enc))
		}
		if EncodedDeltaBytes(ds) != len(enc) {
			t.Fatalf("EncodedDeltaBytes = %d, encoded %d", EncodedDeltaBytes(ds), len(enc))
		}
		for _, d := range ds {
			if d.WireBytes() != 16+4*len(d.D)+8*len(d.F) {
				t.Fatalf("WireBytes = %d for %d distances + %d frontier words", d.WireBytes(), len(d.D), len(d.F))
			}
		}
		// Frame the payload and verify corrupt-frame rejection: flipping a
		// byte under the CRC must surface an error, and a CRC-flagged frame
		// must leave the stream in sync.
		buf := appendFrame(nil, frame{Tag: TagBoundaryDV, Kind: payloadDeltas, From: 1, To: 2, Body: enc})
		if f2, err := readFrame(bytes.NewReader(buf), 0); err != nil {
			t.Fatalf("clean frame rejected: %v", err)
		} else if !bytes.Equal(f2.Body, enc) {
			t.Fatal("clean frame body mismatch")
		}
		if len(buf) == 0 {
			return
		}
		pos := 2 + len(data)%(len(buf)-2) // always under the CRC
		mut := append([]byte(nil), buf...)
		mut[pos] ^= 0x55
		next := appendFrame(nil, frame{Tag: tagStepEnd, From: 1, To: 2})
		r := bytes.NewReader(append(mut, next...))
		_, err = readFrame(r, 0)
		if err == nil {
			t.Fatalf("flip at byte %d of %d-byte frame not detected", pos, len(buf))
		}
		// A CRC-flagged frame leaves the stream in sync — provided the
		// length prefix itself was intact (a torn length legitimately
		// desyncs framing and surfaces as a hard error instead).
		if pos >= headerLen && errors.Is(err, ErrCorruptFrame) {
			if f3, err := readFrame(r, 0); err != nil || f3.Tag != tagStepEnd {
				t.Fatalf("stream desynced after corrupt frame: %v", err)
			}
		}
	})
}

// FuzzDecodeEvents fuzzes the dynamic-event codec, the body of every event
// frame and of the rejoin-go journal: arbitrary bytes must never panic
// DecodeEvents, and every list it accepts must re-encode through
// EncodeEvents to the input bytes. The seeds are encodings of real vertex
// batches (a preferential batch on a BA graph, with internal, external and
// pending edges), edge-addition lists, an empty list, and truncated and
// oversized counts.
func FuzzDecodeEvents(f *testing.F) {
	seed := func(evs []change.Event) {
		body, err := EncodeEvents(evs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	g, err := gen.BarabasiAlbert(60, 2, gen.Weights{Min: 1, Max: 4}, 3)
	if err != nil {
		f.Fatal(err)
	}
	batch, err := gen.PreferentialBatch(g, 6, 2, 1, gen.Weights{Min: 1, Max: 4}, 5)
	if err != nil {
		f.Fatal(err)
	}
	batch.Pending = []change.PendingEdge{{New: 1, EarlierBatchVertex: 0, Weight: 2}}
	adds := []change.EdgeAdd{{U: 1, V: 2, Weight: 3}, {U: 40, V: 7, Weight: 1}}
	seed(nil)
	seed([]change.Event{{Batch: batch}})
	seed([]change.Event{{EdgeAdds: adds}})
	seed([]change.Event{{Batch: batch}, {EdgeAdds: adds}, {Batch: &change.VertexBatch{NumVertices: 1}}})
	seed([]change.Event{{EdgeAdds: []change.EdgeAdd{}}})
	f.Add([]byte{0x01, 0x00, 0x00})                          // truncated count
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, wireEventBatch})    // count past the body
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0x09})              // unknown kind
	f.Add([]byte{0x01, 0, 0, 0, wireEventBatch, 0xff, 0xff}) // truncated batch

	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := DecodeEvents(data)
		if err != nil {
			return // rejected input: fine, as long as it did not panic
		}
		enc, err := EncodeEvents(evs)
		if err != nil {
			t.Fatalf("accepted list does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("roundtrip mismatch: in %d bytes, out %d bytes", len(data), len(enc))
		}
	})
}
