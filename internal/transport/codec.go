package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"

	"anytime/internal/change"
	"anytime/internal/dv"
	"anytime/internal/graph"
	"anytime/internal/kernel"
)

// The delta payload codec realizes dv.Delta's accounted wire size as the
// actual bytes on the wire: each delta is a 16-byte header (owner, lo,
// distance count, frontier word count — int32 little-endian) followed by
// count 4-byte distances and then the frontier words (8 bytes each), which
// is exactly Delta.WireBytes(). A boundary-DV message's frame body is the
// concatenation of its deltas.

// EncodedDeltaBytes returns the encoded size of a delta list — the sum of
// the deltas' WireBytes.
func EncodedDeltaBytes(ds []*dv.Delta) int {
	n := 0
	for _, d := range ds {
		n += d.WireBytes()
	}
	return n
}

// appendDeltas serializes a delta list onto dst.
func appendDeltas(dst []byte, ds []*dv.Delta) []byte {
	for _, d := range ds {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(d.Owner))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(d.Lo))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(d.D)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(d.F)))
		dst = AppendLE(dst, d.D)
		dst = AppendLE(dst, d.F)
	}
	return dst
}

// deltaHeader checks the 16-byte delta header at the front of body and the
// room the delta claims after it, returning its owner, window start and
// distance and frontier word counts. It rejects truncated bodies, negative
// headers, windows that do not fit an int32 column range, frontier
// sections wider than the window, and frontier sections on an unaligned
// window (bit positions would not line up with window offsets, so a masked
// sweep could skip live columns).
func deltaHeader(body []byte) (owner, lo int32, count, fwords int, err error) {
	if len(body) < 16 {
		return 0, 0, 0, 0, fmt.Errorf("transport: truncated delta header (%d bytes left)", len(body))
	}
	owner = int32(binary.LittleEndian.Uint32(body[0:]))
	lo = int32(binary.LittleEndian.Uint32(body[4:]))
	c := int32(binary.LittleEndian.Uint32(body[8:]))
	fw := int32(binary.LittleEndian.Uint32(body[12:]))
	if owner < 0 || lo < 0 || c < 0 || int64(lo)+int64(c) > int64(1)<<31-1 {
		return 0, 0, 0, 0, fmt.Errorf("transport: invalid delta header owner=%d lo=%d count=%d", owner, lo, c)
	}
	if fw < 0 || int64(fw) > (int64(c)+63)>>6 || (fw > 0 && lo&63 != 0) {
		return 0, 0, 0, 0, fmt.Errorf("transport: invalid delta frontier lo=%d count=%d fwords=%d", lo, c, fw)
	}
	if int64(len(body)-16) < int64(c)*4+int64(fw)*8 {
		return 0, 0, 0, 0, fmt.Errorf("transport: truncated delta body (%d distances + %d frontier words claimed, %d bytes left)", c, fw, len(body)-16)
	}
	return owner, lo, int(c), int(fw), nil
}

// decodeDeltas parses a frame body produced by appendDeltas. It validates
// every header before it allocates the Delta structs, their pointers, one
// distance arena and one frontier arena; each D and F is a capacity-bounded
// window of its arena, so nothing decoded aliases body.
func decodeDeltas(body []byte) ([]*dv.Delta, error) {
	var n, nDist, nWords int
	for rest := body; len(rest) > 0; n++ {
		_, _, count, fwords, err := deltaHeader(rest)
		if err != nil {
			return nil, err
		}
		rest = rest[16+4*count+8*fwords:]
		nDist += count
		nWords += fwords
	}
	ds := make([]dv.Delta, n)
	out := make([]*dv.Delta, n)
	dist := make([]graph.Dist, nDist)
	words := make(kernel.Bitset, nWords)
	for i := range ds {
		owner, lo, count, fwords, _ := deltaHeader(body) // checked above
		body = body[16:]
		d := &ds[i]
		d.Owner, d.Lo, d.D, dist = owner, lo, dist[:count:count], dist[count:]
		ReadLE(d.D, body)
		body = body[4*count:]
		if fwords > 0 {
			d.F, words = words[:fwords:fwords], words[fwords:]
			ReadLE(d.F, body)
			body = body[8*fwords:]
		}
		out[i] = d
	}
	return out, nil
}

// hostLE reports whether the host stores integers little-endian, like the
// wire and checkpoints: a typed slice's memory then is its encoding.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// AppendLE appends s to dst as little-endian words of s's element width —
// the encoding of delta rows on the wire and of DV rows in checkpoints and
// recovery shards. On a little-endian host it is one bulk copy.
func AppendLE[T int32 | uint64](dst []byte, s []T) []byte {
	if hostLE {
		return append(dst, asBytes(s)...)
	}
	return appendLEPortable(dst, s)
}

// ReadLE fills dst from the first len(dst) words of src, the inverse of
// AppendLE. src may start at any offset.
func ReadLE[T int32 | uint64](dst []T, src []byte) {
	src = src[:len(dst)*int(unsafe.Sizeof(T(0)))]
	if hostLE {
		copy(asBytes(dst), src)
		return
	}
	readLEPortable(dst, src)
}

// asBytes views a typed slice's memory as bytes. Only this direction is
// ever converted — never a byte offset to a typed pointer — so the view
// keeps s's alignment and the encoded side may sit at any offset.
func asBytes[T int32 | uint64](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(T(0))))
}

// appendLEPortable and readLEPortable are AppendLE's and ReadLE's
// per-element branch, taken on big-endian hosts: encoding/binary converts
// one element at a time.
func appendLEPortable[T int32 | uint64](dst []byte, s []T) []byte {
	b := bytes.NewBuffer(dst)
	binary.Write(b, binary.LittleEndian, s) // cannot fail on a bytes.Buffer
	return b.Bytes()
}

func readLEPortable[T int32 | uint64](dst []T, src []byte) {
	_ = binary.Read(bytes.NewReader(src), binary.LittleEndian, dst) // cannot fail: src holds every word
}

// The event payload codec ships dynamic-graph change descriptors between
// processes: a u32 event count, then per event a u8 kind byte (1 = vertex
// batch, 2 = edge additions) followed by the kind's body. Only the change
// kinds the cross-process runner applies are wire-encodable; the richer
// kinds (deletions, weight changes, rebalance) stay single-process until
// their distributed reset path exists.

const (
	wireEventBatch    = 1
	wireEventEdgeAdds = 2
)

func appendU32(dst []byte, v uint32) []byte {
	var u [4]byte
	binary.LittleEndian.PutUint32(u[:], v)
	return append(dst, u[:]...)
}

// appendEvents serializes an event list onto dst. Unsupported change kinds
// are an error: silently dropping part of an event stream would desynchronize
// the ranks' graphs.
func appendEvents(dst []byte, evs []change.Event) ([]byte, error) {
	dst = appendU32(dst, uint32(len(evs)))
	for i, ev := range evs {
		switch {
		case ev.Batch != nil:
			b := ev.Batch
			dst = append(dst, wireEventBatch)
			dst = appendU32(dst, uint32(b.NumVertices))
			dst = appendU32(dst, uint32(len(b.Internal)))
			for _, e := range b.Internal {
				dst = appendU32(dst, uint32(e.A))
				dst = appendU32(dst, uint32(e.B))
				dst = appendU32(dst, uint32(e.Weight))
			}
			dst = appendU32(dst, uint32(len(b.External)))
			for _, e := range b.External {
				dst = appendU32(dst, uint32(e.New))
				dst = appendU32(dst, uint32(e.Existing))
				dst = appendU32(dst, uint32(e.Weight))
			}
			dst = appendU32(dst, uint32(len(b.Pending)))
			for _, e := range b.Pending {
				dst = appendU32(dst, uint32(e.New))
				dst = appendU32(dst, uint32(e.EarlierBatchVertex))
				dst = appendU32(dst, uint32(e.Weight))
			}
		case ev.EdgeAdds != nil:
			dst = append(dst, wireEventEdgeAdds)
			dst = appendU32(dst, uint32(len(ev.EdgeAdds)))
			for _, e := range ev.EdgeAdds {
				dst = appendU32(dst, uint32(e.U))
				dst = appendU32(dst, uint32(e.V))
				dst = appendU32(dst, uint32(e.Weight))
			}
		default:
			return nil, fmt.Errorf("transport: event %d has no wire-encodable change kind", i)
		}
	}
	return dst, nil
}

// EncodeEvents serializes an event list with the wire codec — exposed so
// control payloads (the rejoin-go journal) can embed an event stream.
func EncodeEvents(evs []change.Event) ([]byte, error) { return appendEvents(nil, evs) }

// DecodeEvents is the inverse of EncodeEvents.
func DecodeEvents(body []byte) ([]change.Event, error) { return decodeEvents(body) }

// eventReader is a cursor over an encoded event body with sticky error
// handling.
type eventReader struct {
	body []byte
	err  error
}

func (r *eventReader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if len(r.body) < 1 {
		r.err = fmt.Errorf("transport: truncated event body")
		return 0
	}
	v := r.body[0]
	r.body = r.body[1:]
	return v
}

func (r *eventReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.body) < 4 {
		r.err = fmt.Errorf("transport: truncated event body")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.body)
	r.body = r.body[4:]
	return v
}

// count reads a list length and bounds it by the remaining bytes (elemBytes
// each) so a corrupt count cannot drive a huge allocation.
func (r *eventReader) count(elemBytes int) int {
	n := r.u32()
	if r.err == nil && int64(n)*int64(elemBytes) > int64(len(r.body)) {
		r.err = fmt.Errorf("transport: event list of %d elements exceeds %d remaining bytes", n, len(r.body))
		return 0
	}
	return int(n)
}

// decodeEvents parses a frame body produced by appendEvents.
func decodeEvents(body []byte) ([]change.Event, error) {
	r := &eventReader{body: body}
	n := r.count(1)
	evs := make([]change.Event, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		switch kind := r.u8(); kind {
		case wireEventBatch:
			b := &change.VertexBatch{NumVertices: int(r.u32())}
			for j, nIn := 0, r.count(12); j < nIn && r.err == nil; j++ {
				b.Internal = append(b.Internal, change.InternalEdge{
					A: int32(r.u32()), B: int32(r.u32()), Weight: graph.Weight(r.u32())})
			}
			for j, nEx := 0, r.count(12); j < nEx && r.err == nil; j++ {
				b.External = append(b.External, change.ExternalEdge{
					New: int32(r.u32()), Existing: int32(r.u32()), Weight: graph.Weight(r.u32())})
			}
			for j, nPe := 0, r.count(12); j < nPe && r.err == nil; j++ {
				b.Pending = append(b.Pending, change.PendingEdge{
					New: int32(r.u32()), EarlierBatchVertex: int32(r.u32()), Weight: graph.Weight(r.u32())})
			}
			evs = append(evs, change.Event{Batch: b})
		case wireEventEdgeAdds:
			nAdd := r.count(12)
			adds := make([]change.EdgeAdd, 0, nAdd)
			for j := 0; j < nAdd && r.err == nil; j++ {
				adds = append(adds, change.EdgeAdd{
					U: int32(r.u32()), V: int32(r.u32()), Weight: graph.Weight(r.u32())})
			}
			evs = append(evs, change.Event{EdgeAdds: adds})
		default:
			return nil, fmt.Errorf("transport: unknown wire event kind %d", kind)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.body) != 0 {
		return nil, fmt.Errorf("transport: %d trailing bytes after event list", len(r.body))
	}
	return evs, nil
}

// appendMessageFrame appends the frame of a message carrying payload onto
// dst, encoding the payload in place after the header: delta lists (the
// boundary-DV plane), dynamic-event lists, or opaque bytes (control
// traffic); any other payload type is a caller bug.
func appendMessageFrame(dst []byte, f frame, payload interface{}) ([]byte, error) {
	start := len(dst)
	f.Kind = payloadRaw
	dst = appendHeader(dst, f)
	var err error
	switch p := payload.(type) {
	case nil:
	case []byte:
		dst = append(dst, p...)
	case []*dv.Delta:
		dst[start+4] = payloadDeltas
		dst = appendDeltas(slices.Grow(dst, EncodedDeltaBytes(p)+trailerLen), p)
	case []change.Event:
		dst[start+4] = payloadEvents
		dst, err = appendEvents(dst, p)
	default:
		err = fmt.Errorf("transport: payload type %T is not wire-encodable", payload)
	}
	if err != nil {
		return nil, err
	}
	return closeFrame(dst, start), nil
}

// decodePayload is the inverse of appendMessageFrame's payload encoding.
// Nothing it returns aliases body: raw bytes are copied out.
func decodePayload(kind uint8, body []byte) (interface{}, error) {
	switch kind {
	case payloadRaw:
		return bytes.Clone(body), nil
	case payloadDeltas:
		ds, err := decodeDeltas(body)
		if err != nil {
			return nil, err
		}
		return ds, nil
	case payloadEvents:
		evs, err := decodeEvents(body)
		if err != nil {
			return nil, err
		}
		return evs, nil
	default:
		return nil, fmt.Errorf("transport: unknown payload kind %d", kind)
	}
}
