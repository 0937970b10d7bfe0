package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"anytime/internal/change"
	"anytime/internal/dv"
	"anytime/internal/gen"
)

// fuzzCheckpoint is a converged two-processor engine's checkpoint, plus the
// offset of its first table's row count.
func fuzzCheckpoint(tb testing.TB) (blob []byte, table0 int) {
	e, err := New(testGraph(tb, 30, 211), defaultTestOptions(2, 211))
	if err != nil {
		tb.Fatal(err)
	}
	e.Run()
	_, _, table0 = checkpointLayout(e)
	return checkpointBytes(tb, e), table0
}

// streamCheckpoint is the checkpoint of a two-processor CutEdge-PS engine
// grown from 28 to 32 vertices by one batch, so its stream map is
// non-empty, and the engine it was taken from.
func streamCheckpoint(tb testing.TB) ([]byte, *Engine) {
	g := testGraph(tb, 28, 213)
	o := defaultTestOptions(2, 211)
	o.Strategy = CutEdgePS
	e, err := New(g, o)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := gen.CommunityBatch(g, 4, 1.5, gen.Weights{Min: 1, Max: 3}, 213)
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.QueueBatch(b); err != nil {
		tb.Fatal(err)
	}
	e.Run()
	return checkpointBytes(tb, e), e
}

func checkpointBytes(tb testing.TB, e *Engine) []byte {
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// checkpointLayout returns the offsets in e's checkpoint of the placement
// cursor, the first stream-map entry and the first table's row count.
func checkpointLayout(e *Engine) (cursor, stream0, table0 int) {
	n, m := e.Graph().NumVertices(), e.Graph().NumEdges()
	// magic; n, m; the edges; alive flags; P, step, converged, forceRefine
	cursor = len(checkpointMagic) + 16 + 12*m + 4*n + 8 + 8 + 4 + 4
	// the cursor; the partition; the stream map's length
	stream0 = cursor + 8 + 4*n + 8
	table0 = stream0 + 4*len(e.log.streamMap)
	return cursor, stream0, table0
}

// dupOwnerCheckpoint is a CRC-valid checkpoint whose first table's second
// row claims the first row's owner.
func dupOwnerCheckpoint(tb testing.TB) []byte {
	blob, table0 := fuzzCheckpoint(tb)
	// the row count, then per row: owner, dirty, pendAll, pendLo, pendHi,
	// n distances
	const n = 30
	row0 := table0 + 8
	row1 := row0 + 5*4 + 4*n
	copy(blob[row1:row1+4], blob[row0:row0+4])
	return reseal(blob, checkpointMagic)
}

// TestRestoreRejectsBadEventLog: a CRC-valid checkpoint whose placement
// cursor or stream map points outside the engine is corrupt. Accepted, the
// next batch through either would index out of range.
func TestRestoreRejectsBadEventLog(t *testing.T) {
	blob, e := streamCheckpoint(t)
	cursor, stream0, _ := checkpointLayout(e)
	if _, err := Restore(bytes.NewReader(blob), e.Options()); err != nil {
		t.Fatalf("unmodified checkpoint: %v", err)
	}
	for _, c := range []struct {
		name string
		put  func(blob []byte)
	}{
		{"stream map entry 255", func(b []byte) { binary.LittleEndian.PutUint32(b[stream0:], 255) }},
		{"cursor -1", func(b []byte) { binary.LittleEndian.PutUint64(b[cursor:], ^uint64(0)) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := append([]byte(nil), blob...)
			c.put(bad)
			if _, err := Restore(bytes.NewReader(reseal(bad, checkpointMagic)), e.Options()); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

func TestRestoreRejectsDuplicateOwner(t *testing.T) {
	if _, err := Restore(bytes.NewReader(dupOwnerCheckpoint(t)), defaultTestOptions(2, 211)); err == nil {
		t.Fatal("a checkpoint with two rows for one owner was accepted")
	}
}

// Restore must never panic on malformed checkpoints, and must reject any
// mutation that breaks structural invariants (or, if the mutation only
// touches payload values, still produce a structurally valid engine). The
// CRC trailer is recomputed, so mutations reach the decoder behind it.
func FuzzRestore(f *testing.F) {
	valid, _ := fuzzCheckpoint(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(checkpointMagic))
	f.Add(valid[:len(valid)/2])
	f.Add(dupOwnerCheckpoint(f))
	stream, _ := streamCheckpoint(f)
	f.Add(stream)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Restore(bytes.NewReader(reseal(data, checkpointMagic)), defaultTestOptions(2, 211))
		if err != nil {
			return
		}
		// whatever was accepted must be usable, and must absorb a
		// round-robin batch through its placement cursor and stream map
		if verr := r.Graph().Validate(); verr != nil {
			t.Fatalf("restored invalid graph: %v", verr)
		}
		_ = r.Snapshot()
		r.Run()
		b := &change.VertexBatch{NumVertices: 2, Internal: []change.InternalEdge{{A: 0, B: 1, Weight: 1}}}
		if len(r.log.streamMap) > 0 {
			b.Pending = []change.PendingEdge{{New: 1, EarlierBatchVertex: int32(len(r.log.streamMap) - 1), Weight: 2}}
		}
		if err := r.QueueBatch(b); err != nil {
			t.Fatalf("queueing a batch on the restored engine: %v", err)
		}
		r.Run()
	})
}

// reseal returns a copy of a blob framed as magic, body and a CRC32 trailer
// (a checkpoint or a recovery shard) with the trailer recomputed, so a
// mutated blob gets past the checksum to the decoder.
func reseal(blob []byte, magic string) []byte {
	if len(blob) < len(magic)+8 {
		return blob
	}
	blob = append([]byte(nil), blob...)
	body := blob[len(magic) : len(blob)-8]
	binary.LittleEndian.PutUint64(blob[len(blob)-8:], uint64(crc32.ChecksumIEEE(body)))
	return blob
}

// dupOwnerShard is a CRC-valid two-row shard whose second row claims the
// first row's owner.
func dupOwnerShard() []byte {
	t := dv.NewMatrix(4)
	t.AddRow(1)
	t.AddRow(2)
	blob := EncodeShard(t, 3)
	// magic, step, width, row count, then row 0: owner, 4 flag/window words,
	// 4 distances; row 1's owner follows.
	row1 := len(shardMagic) + 3*8 + 5*4 + 4*4
	copy(blob[row1:row1+4], blob[len(shardMagic)+3*8:len(shardMagic)+3*8+4])
	return reseal(blob, shardMagic)
}

func TestDecodeShardRejectsDuplicateOwner(t *testing.T) {
	if _, _, err := DecodeShard(dupOwnerShard(), 4, nil); err == nil {
		t.Fatal("a shard with two rows for one owner was accepted")
	}
}

// TestDecodeShardRejectsOldVersion: an AASHRD01 shard (rows with a
// next-hop column) left on disk by an older build is refused with
// ErrCheckpointVersion naming the version, never decoded as the current
// layout; a rejoining rank then recomputes its rows from scratch.
func TestDecodeShardRejectsOldVersion(t *testing.T) {
	t4 := dv.NewMatrix(4)
	t4.AddRow(1)
	old := reseal(append([]byte("AASHRD01"), EncodeShard(t4, 3)[len(shardMagic):]...), shardMagic)
	_, _, err := DecodeShard(old, 4, nil)
	if !errors.Is(err, ErrCheckpointVersion) || !strings.Contains(err.Error(), "AASHRD01") {
		t.Fatalf("got %v, want ErrCheckpointVersion naming AASHRD01", err)
	}
}

// DecodeShard reads blobs from disk (rank.Rejoin): it must never panic, and
// any matrix it accepts must hold in-range owners with zero self distance
// and in-range pending windows.
func FuzzDecodeShard(f *testing.F) {
	const n = 40
	e, err := New(testGraph(f, 30, 211), defaultTestOptions(2, 211))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeShard(e.procs[0].table, 0))
	f.Add(EncodeShard(dv.NewMatrix(4), 1))
	f.Add(dupOwnerShard())
	f.Add([]byte(shardMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, _, err := DecodeShard(reseal(data, shardMagic), n, nil)
		if err != nil {
			return
		}
		if m.Cols() != n {
			t.Fatalf("width %d, want %d", m.Cols(), n)
		}
		for _, row := range m.Rows() {
			if row.Owner < 0 || row.Owner >= n {
				t.Fatalf("accepted row owner %d outside [0, %d)", row.Owner, n)
			}
			if row.D[row.Owner] != 0 {
				t.Fatalf("accepted row %d with self distance %d", row.Owner, row.D[row.Owner])
			}
			if _, lo, hi := row.PendingState(); lo < 0 || lo > hi || hi > n {
				t.Fatalf("accepted row %d with pending window [%d, %d)", row.Owner, lo, hi)
			}
		}
	})
}
