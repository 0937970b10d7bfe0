package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"anytime/internal/dv"
)

// Restore must never panic on malformed checkpoints, and must reject any
// mutation that breaks structural invariants (or, if the mutation only
// touches payload values, still produce a structurally valid engine).
func FuzzRestore(f *testing.F) {
	g := testGraph(f, 30, 211)
	e, err := New(g, defaultTestOptions(2, 211))
	if err != nil {
		f.Fatal(err)
	}
	e.Run()
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(checkpointMagic))
	f.Add(valid[:len(valid)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Restore(bytes.NewReader(data), defaultTestOptions(2, 211))
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

// resealShard returns a copy of a recovery shard with its CRC trailer
// recomputed, so a mutated blob gets past the checksum to the row decoder.
func resealShard(blob []byte) []byte {
	if len(blob) < len(shardMagic)+8 {
		return blob
	}
	blob = append([]byte(nil), blob...)
	body := blob[len(shardMagic) : len(blob)-8]
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
	return resealShard(blob)
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
		m, _, err := DecodeShard(resealShard(data), n, nil)
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
