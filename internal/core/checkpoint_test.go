package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anytime/internal/change"
	"anytime/internal/fault"
	"anytime/internal/gen"
)

// Checkpoint mid-run, restore, continue: the resumed engine must follow
// the identical trajectory (distances, steps, metrics) as the original.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	g := testGraph(t, 120, 101)
	o := defaultTestOptions(4, 101)
	o.Strategy = CutEdgePS

	// reference run, uninterrupted
	ref, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.CommunityBatch(g, 20, 1.5, gen.Weights{Min: 1, Max: 3}, 101)
	if err != nil {
		t.Fatal(err)
	}
	ref.Step()
	ref.Step()
	if err := ref.QueueBatch(b); err != nil {
		t.Fatal(err)
	}
	ref.Run()

	// interrupted run: checkpoint after two steps, restore, continue
	e1, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	e1.Step()
	e1.Step()
	var buf bytes.Buffer
	if err := e1.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := Restore(&buf, o)
	if err != nil {
		t.Fatal(err)
	}
	if e2.StepsTaken() != 2 {
		t.Fatalf("restored step count = %d", e2.StepsTaken())
	}
	if err := e2.QueueBatch(b); err != nil {
		t.Fatal(err)
	}
	e2.Run()

	requireExact(t, e2)
	rd, ed := ref.Distances(), e2.Distances()
	for v := range rd {
		for u := range rd[v] {
			if rd[v][u] != ed[v][u] {
				t.Fatalf("resumed run diverged at [%d][%d]", v, u)
			}
		}
	}
	rm, em := ref.Metrics(), e2.Metrics()
	if rm.RCSteps != em.RCSteps || rm.VirtualTime != em.VirtualTime ||
		rm.Comm.Messages != em.Comm.Messages {
		t.Fatalf("resumed metrics diverged: %+v vs %+v", rm, em)
	}
}

func TestCheckpointAfterDynamicChanges(t *testing.T) {
	g := testGraph(t, 90, 103)
	o := defaultTestOptions(3, 103)
	o.Strategy = RepartitionS
	e, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.PreferentialBatch(g, 12, 2, 1, gen.Weights{}, 103)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(b); err != nil {
		t.Fatal(err)
	}
	e.Run()
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&buf, o)
	if err != nil {
		t.Fatal(err)
	}
	requireExact(t, r)
	if r.Graph().NumVertices() != 102 {
		t.Fatalf("restored graph has %d vertices", r.Graph().NumVertices())
	}
	m := r.Metrics()
	if m.VerticesAdded != 12 || m.Repartitions != 1 {
		t.Fatalf("restored metrics lost history: %+v", m)
	}
	// the restored engine keeps absorbing changes
	b2, err := gen.PreferentialBatch(r.Graph(), 8, 2, 1, gen.Weights{}, 104)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.QueueBatch(b2); err != nil {
		t.Fatal(err)
	}
	r.Run()
	requireExact(t, r)
}

func TestCheckpointRejectsQueuedEvents(t *testing.T) {
	g := testGraph(t, 60, 107)
	e, err := New(g, defaultTestOptions(3, 107))
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.PreferentialBatch(g, 5, 2, 0, gen.Weights{}, 107)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(b); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err == nil {
		t.Fatal("checkpoint with queued events should fail")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	o := defaultTestOptions(2, 1)
	cases := [][]byte{
		nil,
		[]byte("not a checkpoint"),
		[]byte(checkpointMagic), // truncated after magic
	}
	for i, c := range cases {
		if _, err := Restore(bytes.NewReader(c), o); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// valid checkpoint, wrong P
	g := testGraph(t, 40, 109)
	e, err := New(g, defaultTestOptions(2, 109))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	wrongP := defaultTestOptions(3, 109)
	if _, err := Restore(bytes.NewReader(buf.Bytes()), wrongP); err == nil {
		t.Fatal("P mismatch accepted")
	}
	// corrupt a byte in the middle
	data := append([]byte(nil), buf.Bytes()...)
	data[len(data)/3] ^= 0xff
	if _, err := Restore(bytes.NewReader(data), defaultTestOptions(2, 109)); err == nil {
		t.Log("bit flip not detected structurally (acceptable if it hit a distance value)")
	}
}

func TestCheckpointWithDeletedVertex(t *testing.T) {
	g := testGraph(t, 70, 113)
	o := defaultTestOptions(3, 113)
	e, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if err := e.QueueVertexDel(5); err != nil {
		t.Fatal(err)
	}
	e.Run()
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&buf, o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Alive(5) {
		t.Fatal("restored engine resurrected deleted vertex")
	}
	requireExact(t, r)
}

func checkpointTestEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(testGraph(t, 60, 17), defaultTestOptions(4, 17))
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !e.Converged() {
		t.Fatal("engine did not converge")
	}
	return e
}

// TestCheckpointCorruptionDetected flips single bytes across a checkpoint
// stream: every corruption must surface as ErrCorruptCheckpoint — never a
// silently wrong engine — and truncation must fail too.
func TestCheckpointCorruptionDetected(t *testing.T) {
	e := checkpointTestEngine(t)
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := Restore(bytes.NewReader(good), e.Options()); err != nil {
		t.Fatalf("pristine checkpoint failed to restore: %v", err)
	}
	for _, off := range []int{len(checkpointMagic), len(good) / 3, len(good) / 2, len(good) - 9, len(good) - 1} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x01
		_, err := Restore(bytes.NewReader(bad), e.Options())
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("flip at offset %d: got %v, want ErrCorruptCheckpoint", off, err)
		}
	}
	_, err := Restore(bytes.NewReader(good[:len(good)-20]), e.Options())
	if !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("truncated checkpoint: got %v, want ErrCorruptCheckpoint", err)
	}
}

// TestRestoreRejectsOldVersions: the AACKPT03–06 readers are gone (nothing
// can produce those streams any more); an old magic fails with
// ErrCheckpointVersion, wrapped with the version's name, instead of a
// generic "not a checkpoint".
func TestRestoreRejectsOldVersions(t *testing.T) {
	e := checkpointTestEngine(t)
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	for _, magic := range []string{"AACKPT03", "AACKPT04", "AACKPT05", "AACKPT06"} {
		old := append([]byte(magic), buf.Bytes()[len(checkpointMagic):]...)
		_, err := Restore(bytes.NewReader(old), e.Options())
		if !errors.Is(err, ErrCheckpointVersion) || !strings.Contains(err.Error(), magic) {
			t.Errorf("%s: got %v, want ErrCheckpointVersion naming the version", magic, err)
		}
	}
}

// TestCheckpointGoldenV7 pins the on-disk format against a committed file:
// a small graph (n=24 + two 2-vertex round-robin batches, P=3)
// checkpointed mid-convergence, so the stream map and cursor are non-empty
// and rows carry dirty marks, pending windows and frontier words. The file
// was converted from the AACKPT06 golden (decoded by the v6 reader, encoded
// by the v7 writer), so it holds the same engine state. It must restore,
// re-encode byte-for-byte, and continue to the exact oracle.
func TestCheckpointGoldenV7(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "v7.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	o := defaultTestOptions(3, 5)
	o.Strategy = RoundRobinPS
	e, err := Restore(bytes.NewReader(golden), o)
	if err != nil {
		t.Fatal(err)
	}
	if e.log.rrNext != 1 || len(e.log.streamMap) != 4 || e.log.streamMap[3] != 27 {
		t.Fatalf("restored cursor=%d stream map=%v, want 1 and [24 25 26 27]", e.log.rrNext, e.log.streamMap)
	}
	if e.StepsTaken() != 2 || e.Converged() {
		t.Fatalf("restored steps=%d converged=%v, want the mid-convergence state after 2 steps", e.StepsTaken(), e.Converged())
	}
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("re-encoded checkpoint differs from testdata/v7.ckpt (%d vs %d bytes): the AACKPT07 layout moved", buf.Len(), len(golden))
	}
	e.Run()
	requireExact(t, e)
}

// TestCheckpointFileAtomic covers the atomic write path: a successful
// write restores; a failed write leaves the previous checkpoint intact and
// no temp litter; a torn (truncated) file is refused by the CRC.
func TestCheckpointFileAtomic(t *testing.T) {
	e := checkpointTestEngine(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "engine.ckpt")
	if err := e.WriteCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreFile(path, e.Options()); err != nil {
		t.Fatalf("restore from file: %v", err)
	}
	prev, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A writer that dies mid-checkpoint (here: the engine refuses because
	// events are queued) must not touch the existing file or leave temps.
	if err := e.QueueEdgeAdds(change.EdgeAdd{U: 0, V: 5, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteCheckpointFile(path); err == nil {
		t.Fatal("checkpoint with queued events unexpectedly succeeded")
	}
	e.Run() // drain the queue for later writes
	cur, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prev, cur) {
		t.Fatal("failed write modified the existing checkpoint")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "engine.ckpt" {
		names := make([]string, len(ents))
		for i, en := range ents {
			names[i] = en.Name()
		}
		t.Fatalf("temp litter after failed write: %v", names)
	}

	// A torn file — as a crash between write and rename could never
	// produce at path, but a crashed direct writer could — fails the CRC.
	if err := os.WriteFile(path, prev[:len(prev)-16], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreFile(path, e.Options()); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("torn checkpoint file: got %v, want ErrCorruptCheckpoint", err)
	}
}

// TestCheckpointRoundTripsFaultState pins the fault section: fault counters,
// recovery metrics, and the degraded flag survive a checkpoint round trip.
func TestCheckpointRoundTripsFaultState(t *testing.T) {
	opts := defaultTestOptions(4, 11)
	opts.Faults = &fault.Plan{
		Seed:     3,
		DropRate: 0.05,
		Crashes:  []fault.Crash{{Proc: 1, Step: 1, DownFor: 1}},
	}
	opts.shardEvery = 2
	e, err := New(testGraph(t, 60, 11), opts)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !e.Converged() || e.Err() != nil {
		t.Fatalf("converged=%v err=%v", e.Converged(), e.Err())
	}
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(bytes.NewReader(buf.Bytes()), opts)
	if err != nil {
		t.Fatal(err)
	}
	om, rm := e.Metrics(), r.Metrics()
	if om.Crashes != rm.Crashes || om.Recoveries != rm.Recoveries ||
		om.Comm.Dropped != rm.Comm.Dropped || om.Comm.Resends != rm.Comm.Resends {
		t.Fatalf("fault state diverged: %+v vs %+v", om, rm)
	}
	if r.Degraded() != e.Degraded() {
		t.Fatalf("degraded flag diverged: %v vs %v", r.Degraded(), e.Degraded())
	}
	requireExact(t, r)
}

// TestCheckpointFrontierRoundTrip pins the v6 extension: mid-convergence
// frontier state — FAll flags and exact bitmask words — survives a
// checkpoint round trip, and a masking-disabled writer (whose bits were
// never maintained) persists every row as FAll.
func TestCheckpointFrontierRoundTrip(t *testing.T) {
	g := testGraph(t, 60, 19)
	o := defaultTestOptions(4, 19)
	e, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	e.Step() // mid-convergence: frontiers carry real bits
	e.Step()
	if e.Converged() {
		t.Skip("engine converged in two steps; no mid-convergence state to pin")
	}
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(bytes.NewReader(buf.Bytes()), o)
	if err != nil {
		t.Fatal(err)
	}
	for pid, p := range e.procs {
		rows := p.table.Rows()
		rrows := r.procs[pid].table.Rows()
		if len(rows) != len(rrows) {
			t.Fatalf("proc %d row count diverged", pid)
		}
		for i, row := range rows {
			rrow := rrows[i]
			if row.FAll != rrow.FAll {
				t.Fatalf("proc %d row %d: FAll %v restored as %v", pid, row.Owner, row.FAll, rrow.FAll)
			}
			if row.FAll {
				continue
			}
			for wi := range row.F {
				if row.F[wi] != rrow.F[wi] {
					t.Fatalf("proc %d row %d: frontier word %d diverged", pid, row.Owner, wi)
				}
			}
		}
	}
	r.Run()
	requireExact(t, r)

	// A masking-disabled engine never maintained its bits: its checkpoint
	// must persist every row as FAll, so a masking-enabled restore cannot
	// trust stale masks.
	om := o
	om.noFrontierMask = true
	em, err := New(g, om)
	if err != nil {
		t.Fatal(err)
	}
	em.Step()
	buf.Reset()
	if err := em.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	rm, err := Restore(bytes.NewReader(buf.Bytes()), o) // masking back on
	if err != nil {
		t.Fatal(err)
	}
	for pid, p := range rm.procs {
		for _, row := range p.table.Rows() {
			if !row.FAll {
				t.Fatalf("proc %d row %d: maskless checkpoint restored without FAll", pid, row.Owner)
			}
		}
	}
	rm.Run()
	requireExact(t, rm)
}
