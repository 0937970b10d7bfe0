package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// The TCP backend moves length-prefixed binary frames. Layout (all
// little-endian):
//
//	offset  size  field
//	0       2     magic 0xAA7A
//	2       1     protocol version (1)
//	3       1     tag
//	4       1     payload kind (0 = raw bytes, 1 = dv.Delta list,
//	              2 = change.Event list)
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
	dst = slices.Grow(dst, headerLen+len(f.Body)+trailerLen)
	return closeFrame(append(appendHeader(dst, f), f.Body...), start)
}

// appendHeader appends f's header with a zero payload length; closeFrame
// patches the length in once the payload is appended after it, so a
// payload can be encoded straight into the frame.
func appendHeader(dst []byte, f frame) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, frameMagic)
	dst = append(dst, frameVersion, byte(f.Tag), f.Kind)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(f.From))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(f.To))
	dst = binary.LittleEndian.AppendUint32(dst, f.Seq)
	return binary.LittleEndian.AppendUint32(dst, 0)
}

// closeFrame completes the frame whose header starts at dst[start]: it
// patches the payload length (everything appended after the header) and
// appends the CRC trailer.
func closeFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start+13:], uint32(len(dst)-start-headerLen))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start+2:]))
}

// readFrame reads one frame from r. The payload and trailer are read into
// buf, grown when too small; readFrame returns the frame, whose Body
// aliases the buffer, and the buffer for the caller's next read. It
// returns ErrCorruptFrame for a CRC mismatch after consuming the whole
// frame (the caller may keep reading the stream), ErrFrameTooLarge for an
// oversized payload, and io.EOF / io.ErrUnexpectedEOF on a torn stream.
func readFrame(r io.Reader, buf []byte, maxBytes int) (frame, []byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, buf, err
	}
	if binary.LittleEndian.Uint16(hdr[0:]) != frameMagic {
		return frame{}, buf, fmt.Errorf("transport: bad frame magic %#x", binary.LittleEndian.Uint16(hdr[0:]))
	}
	if hdr[2] != frameVersion {
		return frame{}, buf, fmt.Errorf("transport: unsupported frame version %d", hdr[2])
	}
	n := int(binary.LittleEndian.Uint32(hdr[13:]))
	if maxBytes <= 0 {
		maxBytes = maxFrameBytes
	}
	if n > maxBytes {
		return frame{}, buf, ErrFrameTooLarge
	}
	buf = slices.Grow(buf[:0], n+trailerLen)[:n+trailerLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return frame{}, buf, err
	}
	sum := crc32.ChecksumIEEE(hdr[2:])
	sum = crc32.Update(sum, crc32.IEEETable, buf[:n])
	if sum != binary.LittleEndian.Uint32(buf[n:]) {
		return frame{}, buf, ErrCorruptFrame
	}
	return frame{
		Tag:  Tag(hdr[3]),
		Kind: hdr[4],
		From: int(binary.LittleEndian.Uint16(hdr[5:])),
		To:   int(binary.LittleEndian.Uint16(hdr[7:])),
		Seq:  binary.LittleEndian.Uint32(hdr[9:]),
		Body: buf[:n:n],
	}, buf, nil
}
