package core

import (
	"bytes"
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

// shardMagic versions the recovery-shard encoding: a CRC32-guarded subset
// of the AACKPT checkpoint row encoding, one processor's table only.
const shardMagic = "AASHRD01"

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

// EncodeShard serializes one DV table as a recovery shard: magic, the RC
// step it captures, width, rows (owner, dirty, pending window, distances,
// next hops), ResizeCopies, and a CRC32-IEEE trailer over everything after
// the magic. The format (AASHRD01) is shared by the in-process simulator's
// in-memory shards and the multi-process runner's on-disk shard files.
func EncodeShard(t *dv.Matrix, step int) []byte {
	var buf bytes.Buffer
	buf.WriteString(shardMagic)
	enc := &binWriter{w: &buf}
	n := t.Cols()
	rows := t.Rows()
	enc.i64(int64(step))
	enc.i64(int64(n))
	enc.i64(int64(len(rows)))
	for _, r := range rows {
		enc.i32(r.Owner)
		enc.bool(r.Dirty)
		all, lo, hi := r.PendingState()
		enc.bool(all)
		enc.i32(lo)
		enc.i32(hi)
		for _, d := range r.D[:n] {
			enc.i32(d)
		}
		for _, h := range r.NH[:n] {
			enc.i32(h)
		}
	}
	enc.i64(t.ResizeCopies)
	sum := crc32.ChecksumIEEE(buf.Bytes()[len(shardMagic):])
	enc.i64(int64(sum))
	return buf.Bytes()
}

// DecodeShard parses a recovery shard into a width-n matrix, keeping only
// the rows keep accepts (rows deleted or migrated away since the shard was
// written are skipped; a nil keep keeps everything). Columns added since
// the shard stay at InfDist. It returns the matrix and the RC step the
// shard captured. The caller owns the soundness repair that must follow a
// restore: re-seeding every row's incident direct edges (see
// Proc.ReseedDirectEdges).
func DecodeShard(blob []byte, n int, keep func(owner int32) bool) (*dv.Matrix, int, error) {
	if len(blob) < len(shardMagic)+8 {
		return nil, 0, fmt.Errorf("core: recovery shard truncated (%d bytes)", len(blob))
	}
	if string(blob[:len(shardMagic)]) != shardMagic {
		return nil, 0, fmt.Errorf("core: not a recovery shard (magic %q)", blob[:len(shardMagic)])
	}
	payload := blob[len(shardMagic) : len(blob)-8]
	var sumBuf binReader
	sumBuf.r = bytes.NewReader(blob[len(blob)-8:])
	if crc32.ChecksumIEEE(payload) != uint32(sumBuf.i64()) {
		return nil, 0, ErrCorruptShard
	}
	dec := &binReader{r: bytes.NewReader(payload)}
	step := int(dec.i64())
	w := int(dec.i64())
	rowCount := int(dec.i64())
	if dec.err != nil || w < 0 || w > n || rowCount < 0 || rowCount > w {
		return nil, 0, fmt.Errorf("core: corrupt recovery shard header")
	}
	t := dv.NewMatrix(n)
	for i := 0; i < rowCount; i++ {
		owner := dec.i32()
		dirty := dec.bool()
		all := dec.bool()
		lo, hi := dec.i32(), dec.i32()
		_, _, _, _ = dirty, all, lo, hi // superseded: rejoin re-marks ship-all
		if dec.err != nil || owner < 0 || int(owner) >= w {
			return nil, 0, fmt.Errorf("core: corrupt recovery shard row %d", i)
		}
		if keep != nil && !keep(owner) {
			for j := 0; j < 2*w; j++ {
				dec.i32()
			}
			continue
		}
		row := t.AddRow(owner)
		for j := 0; j < w; j++ {
			row.D[j] = dec.i32()
		}
		for j := 0; j < w; j++ {
			row.NH[j] = dec.i32()
		}
		if dec.err != nil || row.D[owner] != 0 {
			return nil, 0, fmt.Errorf("core: corrupt recovery shard row %d", owner)
		}
	}
	t.ResizeCopies = dec.i64()
	if dec.err != nil {
		return nil, 0, fmt.Errorf("core: corrupt recovery shard: %w", dec.err)
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
	e.tracef("crash", "processor %d down at step %d for %d steps (shard restored)", pid, e.step, downFor)
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
	e.tracef("rejoin", "processor %d back at step %d, boundary re-ship scheduled", pid, e.step)
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
		e.procs[msg.From].ReMarkFailed(msg.Payload.([]*dv.Delta))
	}
}
