package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"time"

	"anytime/internal/cluster"
	"anytime/internal/dv"
	"anytime/internal/fault"
	"anytime/internal/graph"
	"anytime/internal/kernel"
	"anytime/internal/obs"
	"anytime/internal/transport"
)

// Checkpointing addresses the paper's stated future work on fault
// tolerance: the complete engine state — graph, partition, every
// processor's distance vectors, dirty marks, and cost counters — can be
// written at any RC-step boundary and restored into a fresh engine, which
// then continues exactly where the checkpoint was taken (bit-identical
// distances and deterministic continuation for the same Options).
//
// The format is a versioned little-endian binary stream; it is
// self-contained except for the Options (function values and interfaces
// are not serializable), which the caller supplies again at Restore and
// which must use the same P.

// checkpointMagic is the one readable format (v7), CRC-guarded: per table
// the DV rows in the recovery shard's row codec (see encodeRows), followed
// by each row's change-frontier state (an FAll flag and, when the row's
// frontier is tracked precisely, its bitmask words), so a restored engine
// resumes masked min-plus sweeps without a conservative full-frontier
// epoch. Any other AACKPT version is refused with ErrCheckpointVersion
// (03–06 have no producer left).
const checkpointMagic = "AACKPT07"

var (
	// ErrCorruptCheckpoint reports a checkpoint whose CRC32 trailer does
	// not match its payload: the file was truncated or bit-flipped and
	// must not be restored.
	ErrCorruptCheckpoint = errors.New("core: corrupt checkpoint (CRC32 mismatch)")
	// ErrCheckpointVersion reports an engine checkpoint of a format
	// version this build does not read; the error names the version.
	ErrCheckpointVersion = errors.New("core: unsupported checkpoint version")
)

// WriteCheckpoint serializes the engine state. It fails if dynamic change
// events are still queued (checkpoint at event boundaries: call after
// Step/Run, before queueing more changes), if a processor is crashed (wait
// for the rejoin), or if the engine has an unrecoverable error.
func (e *Engine) WriteCheckpoint(w io.Writer) error {
	if e.err != nil {
		return fmt.Errorf("core: checkpoint of a failed engine: %w", e.err)
	}
	if e.anyDown() {
		return fmt.Errorf("core: checkpoint with processors %v down; wait for the rejoin", e.DownProcs())
	}
	if len(e.queue) > 0 {
		return fmt.Errorf("core: checkpoint with %d queued events; drain the queue first", len(e.queue))
	}
	wm := e.mark()
	var buf bytes.Buffer
	enc := &binWriter{w: &buf}
	e.encodePayload(enc)
	if enc.err != nil {
		return enc.err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return err
	}
	if _, err := bw.Write(buf.Bytes()); err != nil {
		return err
	}
	tail := &binWriter{w: bw}
	tail.i64(int64(crc32.ChecksumIEEE(buf.Bytes())))
	if tail.err != nil {
		return tail.err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	e.span(obs.KindCheckpointWrite, wm, int64(buf.Len()))
	return nil
}

// encodePayload writes everything between the magic and the CRC trailer.
func (e *Engine) encodePayload(enc *binWriter) {
	n := e.g.NumVertices()
	enc.i64(int64(n))
	enc.i64(int64(e.g.NumEdges()))
	e.g.ForEachEdge(func(u, v int, wt graph.Weight) {
		enc.i32(int32(u))
		enc.i32(int32(v))
		enc.i32(wt)
	})
	for _, a := range e.alive {
		enc.bool(a)
	}
	enc.i64(int64(e.opts.P))
	enc.i64(int64(e.step))
	enc.bool(e.converged)
	enc.bool(e.forceRefine)
	enc.i64(int64(e.log.rrNext))
	for _, p := range e.part.Part {
		enc.i32(p)
	}
	enc.i64(int64(len(e.log.streamMap)))
	for _, v := range e.log.streamMap {
		enc.i32(v)
	}
	for _, p := range e.procs {
		encodeRows(enc, p.table)
		// Change-frontier section: FAll flag per row, then the bitmask
		// words of precisely-tracked rows. A masking-disabled engine has
		// not maintained the bits, so its rows persist as FAll — the
		// restored engine re-tracks from a conservative full frontier
		// instead of trusting stale masks.
		for _, r := range p.table.Rows() {
			all := r.FAll || e.opts.noFrontierMask
			enc.bool(all)
			if all {
				continue
			}
			for _, w := range r.F {
				enc.i64(int64(w))
			}
		}
	}
	e.writeMetrics(enc)
}

// writeMetrics serializes the cost counters, the fault-injection and
// recovery counters, and the degraded flag.
func (e *Engine) writeMetrics(enc *binWriter) {
	m := e.metrics
	st := e.mach.Stats()
	vals := []int64{
		int64(e.mach.VirtualTime()), int64(m.WallTime),
		st.Messages, st.Chunks, st.Bytes, st.Broadcasts, st.Barriers, st.Steps,
		m.DDOps, m.IAOps, m.RCOps, m.ChangeOps,
		int64(m.VerticesAdded), int64(m.EdgesAdded), int64(m.NewCutEdges),
		int64(m.Repartitions), int64(m.RowsMigrated),
	}
	for _, v := range vals {
		enc.i64(v)
	}
	for _, ts := range st.ByTag {
		enc.i64(ts.Messages)
		enc.i64(ts.Bytes)
	}
	for _, v := range []int64{
		st.Resends, st.Dropped, st.Duplicated, st.Delayed, st.Corrupted,
		st.Failed, st.DroppedDown,
		int64(m.Crashes), int64(m.Recoveries), int64(m.ShardsWritten), m.ShardBytes,
	} {
		enc.i64(v)
	}
	enc.bool(e.degraded)
}

// Restore reconstructs an engine from an AACKPT07 checkpoint, CRC32-verified
// before any decoding: a flipped byte yields ErrCorruptCheckpoint, never a
// silently wrong engine. opts must use the same P as the checkpointed
// engine; the partitioners and LogP model may differ (they affect only
// future events and accounting).
func Restore(r io.Reader, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	var rm spanMark
	if opts.Obs != nil {
		rm.wall = opts.Obs.Now()
	}
	br := bufio.NewReader(r)
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint magic: %w", err)
	}
	if string(magic) != checkpointMagic {
		if bytes.HasPrefix(magic, []byte(checkpointMagic[:6])) {
			return nil, fmt.Errorf("%w %s (this build reads %s only)", ErrCheckpointVersion, magic, checkpointMagic)
		}
		return nil, fmt.Errorf("core: not an engine checkpoint (magic %q)", magic)
	}
	payload, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint payload: %w", err)
	}
	if len(payload) < 8 {
		return nil, ErrCorruptCheckpoint
	}
	body, tail := payload[:len(payload)-8], payload[len(payload)-8:]
	if binary.LittleEndian.Uint64(tail) != uint64(crc32.ChecksumIEEE(body)) {
		return nil, ErrCorruptCheckpoint
	}
	dec := &binReader{r: bytes.NewReader(body)}
	n := int(dec.i64())
	m := int(dec.i64())
	if dec.err != nil || n < 0 || m < 0 || n > graph.MaxParseVertices ||
		int64(m) > int64(n)*int64(n-1)/2 {
		return nil, fmt.Errorf("core: corrupt checkpoint header")
	}
	g := graph.New(n)
	for i := 0; i < m; i++ {
		u, v, wt := dec.i32(), dec.i32(), dec.i32()
		if dec.err != nil {
			return nil, fmt.Errorf("core: corrupt checkpoint edges: %w", dec.err)
		}
		if err := g.AddEdge(int(u), int(v), wt); err != nil {
			return nil, fmt.Errorf("core: corrupt checkpoint edge: %w", err)
		}
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = dec.bool()
	}
	p := int(dec.i64())
	if p != opts.P {
		return nil, fmt.Errorf("core: checkpoint has P=%d, options have P=%d", p, opts.P)
	}
	cfg := opts.clusterConfig()
	var inj *fault.Injector
	if opts.Faults != nil {
		var ferr error
		if inj, ferr = fault.NewInjector(*opts.Faults, opts.P); ferr != nil {
			return nil, ferr
		}
		cfg.Fault = inj
	}
	mach, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{opts: opts, g: g, mach: mach, alive: alive, log: NewEventLog(p)}
	e.initFaults(inj)
	e.step = int(dec.i64())
	e.converged = dec.bool()
	e.forceRefine = dec.bool()
	e.log.rrNext = int(dec.i64())
	if dec.err != nil || e.log.rrNext < 0 || e.log.rrNext >= p {
		return nil, fmt.Errorf("core: corrupt checkpoint placement cursor %d", e.log.rrNext)
	}
	part := &graph.Partition{Part: make([]int32, n), K: p}
	for i := range part.Part {
		part.Part[i] = dec.i32()
	}
	if dec.err != nil {
		return nil, fmt.Errorf("core: corrupt checkpoint partition: %w", dec.err)
	}
	if err := part.Validate(g); err != nil {
		return nil, fmt.Errorf("core: corrupt checkpoint partition: %w", err)
	}
	e.part = part
	sm := int(dec.i64())
	if dec.err != nil || sm < 0 || sm > n {
		return nil, fmt.Errorf("core: corrupt checkpoint stream map")
	}
	e.log.streamMap = make([]int32, sm)
	for i := range e.log.streamMap {
		v := dec.i32()
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("core: corrupt checkpoint stream map entry %d", v)
		}
		e.log.streamMap[i] = v
	}
	e.procs = make([]*Proc, p)
	for pid := 0; pid < p; pid++ {
		t := dv.NewMatrix(n)
		if err := decodeRows(dec, t, n, nil); err != nil {
			return nil, fmt.Errorf("core: corrupt checkpoint table %d: %w", pid, err)
		}
		for _, row := range t.Rows() {
			if part.Part[row.Owner] != int32(pid) {
				return nil, fmt.Errorf("core: checkpoint row %d not owned by processor %d", row.Owner, pid)
			}
		}
		// Frontier section. Rows flagged FAll keep the conservative full
		// frontier AddRow installed; the rest restore their exact bitmask
		// words.
		words := kernel.BitsetWords(n)
		for _, row := range t.Rows() {
			if dec.bool() {
				continue
			}
			row.FAll = false
			for wi := 0; wi < words; wi++ {
				row.F[wi] = uint64(dec.i64())
			}
			if tail := uint(n & 63); tail != 0 {
				// bits at or above the column count must stay zero
				row.F[words-1] &= 1<<tail - 1
			}
		}
		if dec.err != nil {
			return nil, fmt.Errorf("core: corrupt checkpoint frontier in table %d", pid)
		}
		e.procs[pid] = e.newProc(pid)
		e.procs[pid].table = t
	}
	e.readMetrics(dec)
	if dec.err != nil {
		return nil, fmt.Errorf("core: corrupt checkpoint: %w", dec.err)
	}
	// sanity: every alive vertex has exactly one row
	seen := 0
	for _, pr := range e.procs {
		seen += pr.table.Len()
	}
	want := 0
	for _, a := range alive {
		if a {
			want++
		}
	}
	if seen != want {
		return nil, fmt.Errorf("core: checkpoint has %d rows for %d alive vertices", seen, want)
	}
	e.refreshWeightProfile()
	e.refreshLoadMetrics()
	e.writeShards() // fresh recovery shards (no-op without Options.Faults)
	e.span(obs.KindCheckpointRestore, rm, int64(n))
	return e, nil
}

func (e *Engine) readMetrics(dec *binReader) {
	virtual := dec.i64()
	e.metrics.WallTime = time.Duration(dec.i64())
	restored := cluster.Stats{
		Messages: dec.i64(), Chunks: dec.i64(), Bytes: dec.i64(),
		Broadcasts: dec.i64(), Barriers: dec.i64(), Steps: dec.i64(),
	}
	e.metrics.DDOps = dec.i64()
	e.metrics.IAOps = dec.i64()
	e.metrics.RCOps = dec.i64()
	e.metrics.ChangeOps = dec.i64()
	e.metrics.VerticesAdded = int(dec.i64())
	e.metrics.EdgesAdded = int(dec.i64())
	e.metrics.NewCutEdges = int(dec.i64())
	e.metrics.Repartitions = int(dec.i64())
	e.metrics.RowsMigrated = int(dec.i64())
	for i := range restored.ByTag {
		restored.ByTag[i].Messages = dec.i64()
		restored.ByTag[i].Bytes = dec.i64()
	}
	restored.Resends = dec.i64()
	restored.Dropped = dec.i64()
	restored.Duplicated = dec.i64()
	restored.Delayed = dec.i64()
	restored.Corrupted = dec.i64()
	restored.Failed = dec.i64()
	restored.DroppedDown = dec.i64()
	e.metrics.Crashes = int(dec.i64())
	e.metrics.Recoveries = int(dec.i64())
	e.metrics.ShardsWritten = int(dec.i64())
	e.metrics.ShardBytes = dec.i64()
	e.degraded = dec.bool()
	if dec.err == nil {
		e.mach.Restore(time.Duration(virtual), restored)
	}
}

// WriteCheckpointFile writes a checkpoint to path atomically (see
// obs.WriteFileAtomic): a crash at any point leaves either the previous
// checkpoint or the complete new one — never a torn file.
func (e *Engine) WriteCheckpointFile(path string) error {
	return obs.WriteFileAtomic(path, e.WriteCheckpoint)
}

// RestoreFile reconstructs an engine from a checkpoint file written by
// WriteCheckpointFile (or any WriteCheckpoint output on disk).
func RestoreFile(path string, opts Options) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Restore(f, opts)
}

// binWriter/binReader are little-endian encoders with sticky errors.
type binWriter struct {
	w       io.Writer
	buf     [8]byte
	scratch []byte
	err     error
}

func (b *binWriter) i32(v int32) {
	if b.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(b.buf[:4], uint32(v))
	_, b.err = b.w.Write(b.buf[:4])
}

func (b *binWriter) i64(v int64) {
	if b.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(b.buf[:8], uint64(v))
	_, b.err = b.w.Write(b.buf[:8])
}

func (b *binWriter) i32s(s []int32) {
	if b.err != nil {
		return
	}
	b.scratch = transport.AppendLE(b.scratch[:0], s)
	_, b.err = b.w.Write(b.scratch)
}

func (b *binWriter) bool(v bool) {
	if v {
		b.i32(1)
	} else {
		b.i32(0)
	}
}

type binReader struct {
	r       io.Reader
	buf     [8]byte
	scratch []byte
	err     error
}

func (b *binReader) i32() int32 {
	if b.err != nil {
		return 0
	}
	if _, b.err = io.ReadFull(b.r, b.buf[:4]); b.err != nil {
		return 0
	}
	return int32(binary.LittleEndian.Uint32(b.buf[:4]))
}

func (b *binReader) i64() int64 {
	if b.err != nil {
		return 0
	}
	if _, b.err = io.ReadFull(b.r, b.buf[:8]); b.err != nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b.buf[:8]))
}

func (b *binReader) i32s(dst []int32) {
	if b.err != nil {
		return
	}
	b.scratch = slices.Grow(b.scratch[:0], 4*len(dst))[:4*len(dst)]
	if _, b.err = io.ReadFull(b.r, b.scratch); b.err == nil {
		transport.ReadLE(dst, b.scratch)
	}
}

func (b *binReader) bool() bool { return b.i32() != 0 }
