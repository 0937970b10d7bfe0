package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"anytime/internal/dv"
	"anytime/internal/fault"
	"anytime/internal/obs"
)

// Crash recovery (the paper's stated fault-tolerance future work, realized
// over the simulated cluster).
//
// With Options.Faults set, every processor serializes its DV table into an
// in-memory recovery shard — the stand-in for its local checkpoint disk —
// every ShardEvery RC steps. A scheduled crash replaces the processor's
// table with its last shard at the step boundary (everything since the
// shard is lost); while down, the processor ships nothing, relaxes nothing,
// and the cluster drops boundary traffic addressed to it. Dynamic changes
// applied during the downtime mutate the restored table like a journaled
// replay, so the upper-bound invariant is preserved: shard distances are
// older and therefore no smaller than current ones, except across the
// non-monotone reset paths (deletions, weight increases), after which
// resetDVs rewrites every shard from the fresh tables.
//
// The rejoin protocol is the row-migration pattern of applyRepartition
// applied to the crash: every restored row ships in full (its neighbors
// must re-relax against whatever the shard lost), every other processor's
// boundary row adjacent to the crashed part ships in full (the restored
// rows must re-receive them), and local refinement is forced so the dirty
// cascade closes the remaining compositions. The engine therefore
// reconverges to the exact sequential oracle — the chaos soak pins this.

// shardMagic versions the recovery-shard encoding: one processor's table
// in the row codec every checkpoint table also uses, CRC32-guarded. Other
// versions are refused with ErrCheckpointVersion (AASHRD01 rows also
// carried a next-hop column), so a rank holding a stale shard file falls
// back to a fresh IA instead of misreading it.
const shardMagic = "AASHRD02"

// ErrCorruptShard reports a recovery shard whose CRC32 trailer does not
// match its payload.
var ErrCorruptShard = fmt.Errorf("core: recovery shard CRC mismatch")

// initFaults wires the fault injector into a freshly built engine.
func (e *Engine) initFaults(inj *fault.Injector) {
	e.inj = inj
	if inj == nil {
		return
	}
	e.rejoinAt = make([]int, e.opts.P)
	for i := range e.rejoinAt {
		e.rejoinAt[i] = -1
	}
	e.shards = make([][]byte, e.opts.P)
}

// down reports whether processor p is currently crashed.
func (e *Engine) down(p int) bool { return e.inj != nil && e.inj.Down(p) }

// anyDown reports whether any processor is currently crashed.
func (e *Engine) anyDown() bool { return e.inj != nil && e.inj.AnyDown() }

// encodeRows is the one DV-table row codec, the body of a recovery shard
// and of every checkpoint table: the row count, then per row the owner,
// the dirty mark, the pending window (all flag, lo, hi) and the Cols()
// distances, then the table's ResizeCopies.
func encodeRows(enc *binWriter, t *dv.Matrix) {
	n := t.Cols()
	rows := t.Rows()
	enc.i64(int64(len(rows)))
	for _, r := range rows {
		enc.i32(r.Owner)
		enc.bool(r.Dirty)
		all, lo, hi := r.PendingState()
		enc.bool(all)
		enc.i32(lo)
		enc.i32(hi)
		enc.i32s(r.D[:n])
	}
	enc.i64(t.ResizeCopies)
}

// decodeRows reads one encodeRows section of row width w into t (whose
// width is at least w; columns from w on stay at InfDist), restoring dirty
// marks and pending windows. Rows keep rejects are read and dropped (nil
// keeps all). Every owner must lie in [0, w) and appear once, every kept
// row's self distance must be zero, and every pending window must satisfy
// 0 ≤ lo ≤ hi ≤ w.
func decodeRows(dec *binReader, t *dv.Matrix, w int, keep func(owner int32) bool) error {
	count := dec.i64()
	if dec.err != nil || count < 0 || count > int64(w) {
		return fmt.Errorf("bad row count %d", count)
	}
	seen := make([]bool, w)
	for i := 0; i < int(count); i++ {
		owner := dec.i32()
		dirty := dec.bool()
		all := dec.bool()
		lo, hi := dec.i32(), dec.i32()
		if dec.err != nil || owner < 0 || int(owner) >= w || seen[owner] {
			return fmt.Errorf("bad row %d", i)
		}
		seen[owner] = true
		if lo < 0 || lo > hi || int(hi) > w {
			return fmt.Errorf("row %d: bad pending window [%d, %d)", owner, lo, hi)
		}
		if keep != nil && !keep(owner) {
			for j := 0; j < w; j++ {
				dec.i32()
			}
			continue
		}
		row := t.AddRow(owner)
		dec.i32s(row.D[:w])
		if dec.err == nil && row.D[owner] != 0 {
			return fmt.Errorf("row %d: nonzero self distance", owner)
		}
		row.Dirty = dirty
		row.SetPendingState(all, lo, hi)
	}
	t.ResizeCopies = dec.i64()
	return dec.err
}

// EncodeShard serializes one DV table as a recovery shard: magic, the RC
// step it captures, width, the rows (encodeRows), and a CRC32-IEEE trailer
// over everything after the magic. The format (AASHRD02) is shared by the
// in-process simulator's in-memory shards and the multi-process runner's
// on-disk shard files.
func EncodeShard(t *dv.Matrix, step int) []byte {
	var buf bytes.Buffer
	buf.WriteString(shardMagic)
	enc := &binWriter{w: &buf}
	enc.i64(int64(step))
	enc.i64(int64(t.Cols()))
	encodeRows(enc, t)
	enc.i64(int64(crc32.ChecksumIEEE(buf.Bytes()[len(shardMagic):])))
	return buf.Bytes()
}

// DecodeShard parses a recovery shard into a width-n matrix, keeping only
// the rows keep accepts (rows deleted or migrated away since the shard was
// written are skipped; a nil keep keeps everything). Columns added since
// the shard stay at InfDist. It returns the matrix and the RC step the
// shard captured. The caller owns the soundness repair that must follow a
// restore: re-seeding every row's incident direct edges (see
// Proc.ReseedDirectEdges) and re-marking every row for a full re-ship.
func DecodeShard(blob []byte, n int, keep func(owner int32) bool) (*dv.Matrix, int, error) {
	if len(blob) < len(shardMagic)+8 {
		return nil, 0, fmt.Errorf("core: recovery shard truncated (%d bytes)", len(blob))
	}
	if magic := blob[:len(shardMagic)]; string(magic) != shardMagic {
		if bytes.HasPrefix(magic, []byte(shardMagic[:6])) {
			return nil, 0, fmt.Errorf("%w %s (this build reads %s only)", ErrCheckpointVersion, magic, shardMagic)
		}
		return nil, 0, fmt.Errorf("core: not a recovery shard (magic %q)", magic)
	}
	payload := blob[len(shardMagic) : len(blob)-8]
	if crc32.ChecksumIEEE(payload) != uint32(binary.LittleEndian.Uint64(blob[len(blob)-8:])) {
		return nil, 0, ErrCorruptShard
	}
	dec := &binReader{r: bytes.NewReader(payload)}
	step := int(dec.i64())
	w := int(dec.i64())
	if dec.err != nil || w < 0 || w > n {
		return nil, 0, fmt.Errorf("core: corrupt recovery shard header")
	}
	t := dv.NewMatrix(n)
	if err := decodeRows(dec, t, w, keep); err != nil {
		return nil, 0, fmt.Errorf("core: corrupt recovery shard: %w", err)
	}
	return t, step, nil
}

// writeShards serializes every processor's table into its recovery shard,
// charging the serialization to each processor's LogP clock (the simulated
// local checkpoint-disk write). No-op without fault injection. Shards of
// down processors are rewritten too: their tables evolve with the journaled
// replay of dynamic changes, and resetDVs relies on the rewrite to
// invalidate stale pre-reset state everywhere.
func (e *Engine) writeShards() {
	if e.inj == nil {
		return
	}
	e.mach.Parallel(func(pid int) {
		wm := e.markProc(pid)
		p := e.procs[pid]
		shard := EncodeShard(p.table, e.step)
		e.shards[pid] = shard
		e.mach.Charge(pid, int64(len(shard)))
		addOps(&e.metrics.ShardBytes, int64(len(shard)))
		e.spanProc(obs.KindShardWrite, pid, wm, int64(len(shard)))
	})
	e.mach.Barrier()
	e.metrics.ShardsWritten += e.opts.P
}

// applyFaultSchedule runs at the start of every RC step: due rejoins are
// processed first, then crashes scheduled for this step.
func (e *Engine) applyFaultSchedule() {
	if e.inj == nil {
		return
	}
	for p, at := range e.rejoinAt {
		if at >= 0 && e.step >= at {
			e.rejoin(p)
		}
	}
	for _, c := range e.inj.CrashesAt(e.step) {
		e.crash(c)
	}
}

// crash fails a processor at a step boundary: its in-memory state since the
// last recovery shard is lost, the shard is reloaded (the reboot-and-read
// cost charged to its clock), and the processor stops participating until
// its rejoin step. Snapshots turn degraded: the restored rows serve older —
// but still valid upper-bound — distances until reconvergence.
func (e *Engine) crash(c fault.Crash) {
	pid := c.Proc
	km := e.mark()
	// Reload the last shard (see Proc.RestoreShard), charging the
	// direct-edge re-seed to the processor's clock.
	ops, err := e.procs[pid].RestoreShard(e.shards[pid], e.alive)
	if err != nil {
		e.fail(err)
		return
	}
	e.mach.Charge(pid, ops)
	downFor := c.DownFor
	if downFor <= 0 {
		downFor = 1
	}
	rejoin := e.step + downFor
	if e.down(pid) {
		// Crashing again while already down only extends the outage.
		if rejoin > e.rejoinAt[pid] {
			e.rejoinAt[pid] = rejoin
		}
		return
	}
	e.inj.SetDown(pid, true)
	e.rejoinAt[pid] = rejoin
	e.mach.Charge(pid, int64(len(e.shards[pid]))) // reboot: reload the shard
	e.degraded = true
	e.converged = false
	e.metrics.Crashes++
	e.spanProcMark(obs.KindCrash, pid, km, int64(downFor))
}

// rejoin brings a crashed processor back: all its rows are marked for a
// full re-ship (their receivers must re-relax against the restored values
// and whatever improves from here), every other processor's boundary row
// adjacent to the crashed part is marked for a full re-ship (the restored
// rows must re-receive what they missed), and local refinement is forced —
// the applyRepartition migration pattern, whose dirty cascade provably
// reconverges the engine to the sequential oracle.
func (e *Engine) rejoin(pid int) {
	jm := e.mark()
	e.inj.SetDown(pid, false)
	e.rejoinAt[pid] = -1
	e.mach.Parallel(func(q int) {
		if q == pid {
			e.mach.Charge(q, e.procs[q].MarkAllShipAll())
		} else {
			e.mach.Charge(q, e.procs[q].MarkRejoinShipAll(int32(pid)))
		}
	})
	e.mach.Barrier()
	e.forceRefine = true
	e.converged = false
	e.metrics.Recoveries++
	e.spanProcMark(obs.KindRejoin, pid, jm, 0)
}

// handleFailedDeliveries re-marks the rows of boundary messages the lossy
// network abandoned (resend budget exhausted) for a full re-ship. The
// sender cleared their pending windows when it shipped them, so without the
// re-mark the receivers would never see the lost updates. It runs after
// relaxAll so the marks survive the end-of-step dirty clearing.
func (e *Engine) handleFailedDeliveries() {
	if e.inj == nil {
		return
	}
	for _, msg := range e.mach.TakeFailed() {
		deltas, err := msg.Deltas()
		if err != nil {
			e.fail(err)
			continue
		}
		e.procs[msg.From].ReMarkFailed(deltas)
	}
}
