package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The TCP backend moves length-prefixed binary frames. Layout (all
// little-endian):
//
//	offset  size  field
//	0       2     magic 0xAA7A
//	2       1     protocol version (1)
//	3       1     tag
//	4       1     payload kind (0 = raw bytes, 1 = dv.Delta list)
//	5       2     from rank (uint16)
//	7       2     to rank (uint16)
//	9       4     sequence number within the sender's current exchange
//	13      4     payload length n
//	17      n     payload
//	17+n    4     CRC32-IEEE over bytes [2, 17+n)
//
// The CRC trailer guards everything after the magic, so a bit flip
// anywhere in the header or payload is detected; the length prefix keeps
// the stream in sync, so a corrupt frame is rejected and skipped without
// tearing the connection.

const (
	frameMagic   = 0xAA7A
	frameVersion = 1
	headerLen    = 17
	trailerLen   = 4

	// payloadRaw marks an opaque []byte payload; payloadDeltas marks a
	// dv.Delta list encoded by appendDeltas; payloadEvents marks a
	// change.Event list encoded by appendEvents (the dynamic-graph event
	// stream shipped from rank 0 to every peer).
	payloadRaw    = 0
	payloadDeltas = 1
	payloadEvents = 2

	// maxFrameBytes bounds one frame's payload (16 MiB); larger messages
	// are a protocol error (the engine's MaxMsgBytes chunking keeps
	// payloads far below this).
	maxFrameBytes = 16 << 20
)

// Frame is one decoded wire frame.
type frame struct {
	Tag      Tag
	Kind     uint8
	From, To int
	Seq      uint32
	Body     []byte
}

// ErrCorruptFrame reports a frame whose CRC32 trailer does not match its
// contents: the frame is rejected and the stream continues at the next
// frame boundary.
var ErrCorruptFrame = errors.New("transport: frame CRC mismatch")

// ErrFrameTooLarge reports a frame whose payload exceeds the configured
// bound — treated as a protocol error (the stream cannot be trusted).
var ErrFrameTooLarge = errors.New("transport: frame exceeds size bound")

// appendFrame serializes f onto dst and returns the extended slice.
func appendFrame(dst []byte, f frame) []byte {
	start := len(dst)
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint16(hdr[0:], frameMagic)
	hdr[2] = frameVersion
	hdr[3] = byte(f.Tag)
	hdr[4] = f.Kind
	binary.LittleEndian.PutUint16(hdr[5:], uint16(f.From))
	binary.LittleEndian.PutUint16(hdr[7:], uint16(f.To))
	binary.LittleEndian.PutUint32(hdr[9:], f.Seq)
	binary.LittleEndian.PutUint32(hdr[13:], uint32(len(f.Body)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, f.Body...)
	sum := crc32.ChecksumIEEE(dst[start+2:])
	var tr [trailerLen]byte
	binary.LittleEndian.PutUint32(tr[:], sum)
	return append(dst, tr[:]...)
}

// readFrame reads one frame from r. It returns ErrCorruptFrame for a CRC
// mismatch after consuming the whole frame (the caller may keep reading
// the stream), ErrFrameTooLarge for an oversized payload, and io.EOF /
// io.ErrUnexpectedEOF on a torn stream.
func readFrame(r io.Reader, maxBytes int) (frame, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	if binary.LittleEndian.Uint16(hdr[0:]) != frameMagic {
		return frame{}, fmt.Errorf("transport: bad frame magic %#x", binary.LittleEndian.Uint16(hdr[0:]))
	}
	if hdr[2] != frameVersion {
		return frame{}, fmt.Errorf("transport: unsupported frame version %d", hdr[2])
	}
	n := int(binary.LittleEndian.Uint32(hdr[13:]))
	if maxBytes <= 0 {
		maxBytes = maxFrameBytes
	}
	if n > maxBytes {
		return frame{}, ErrFrameTooLarge
	}
	body := make([]byte, n+trailerLen)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return frame{}, err
	}
	sum := crc32.ChecksumIEEE(hdr[2:])
	sum = crc32.Update(sum, crc32.IEEETable, body[:n])
	if sum != binary.LittleEndian.Uint32(body[n:]) {
		return frame{}, ErrCorruptFrame
	}
	return frame{
		Tag:  Tag(hdr[3]),
		Kind: hdr[4],
		From: int(binary.LittleEndian.Uint16(hdr[5:])),
		To:   int(binary.LittleEndian.Uint16(hdr[7:])),
		Seq:  binary.LittleEndian.Uint32(hdr[9:]),
		Body: body[:n:n],
	}, nil
}
