package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"anytime/internal/dv"
)

// fuzzCheckpoint is a converged two-processor engine's checkpoint, plus the
// offset of its first table's row count.
func fuzzCheckpoint(tb testing.TB) (blob []byte, table0 int) {
	e, err := New(testGraph(tb, 30, 211), defaultTestOptions(2, 211))
	if err != nil {
		tb.Fatal(err)
	}
	e.Run()
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		tb.Fatal(err)
	}
	// magic; n, m; the edges; alive flags; P, step, converged, forceRefine,
	// rrNext; the partition; the stream map (length, then entries)
	n, m := e.Graph().NumVertices(), e.Graph().NumEdges()
	table0 = len(checkpointMagic) + 16 + 12*m + 4*n + 8 + 8 + 4 + 4 + 8 + 4*n + 8 + 4*len(e.log.streamMap)
	return buf.Bytes(), table0
}

// dupOwnerCheckpoint is a CRC-valid checkpoint whose first table's second
// row claims the first row's owner.
func dupOwnerCheckpoint(tb testing.TB) []byte {
	blob, table0 := fuzzCheckpoint(tb)
	// the row count, then per row: owner, dirty, pendAll, pendLo, pendHi
	row0, row1 := table0+8, table0+8+5*4
	copy(blob[row1:row1+4], blob[row0:row0+4])
	return reseal(blob, checkpointMagic)
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
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Restore(bytes.NewReader(reseal(data, checkpointMagic)), defaultTestOptions(2, 211))
		if err != nil {
			return
		}
		// whatever was accepted must be usable
		if verr := r.Graph().Validate(); verr != nil {
			t.Fatalf("restored invalid graph: %v", verr)
		}
		_ = r.Snapshot()
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
	// 4 distances, 4 next hops; row 1's owner follows.
	row1 := len(shardMagic) + 3*8 + 5*4 + 2*4*4
	copy(blob[row1:row1+4], blob[len(shardMagic)+3*8:len(shardMagic)+3*8+4])
	return reseal(blob, shardMagic)
}

func TestDecodeShardRejectsDuplicateOwner(t *testing.T) {
	if _, _, err := DecodeShard(dupOwnerShard(), 4, nil); err == nil {
		t.Fatal("a shard with two rows for one owner was accepted")
	}
}

// DecodeShard reads blobs from disk (rank.Rejoin): it must never panic, and
// any matrix it accepts must hold in-range owners with zero self distance.
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
		}
	})
}
