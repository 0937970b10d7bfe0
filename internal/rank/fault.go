// The runner's fault plane: how one rank of a real multi-process run
// survives a peer's death and a restarted process re-enters the
// computation.
//
// Failure detection lives in the transport (heartbeat timeouts over TCP,
// explicit aborts in-process) and is surfaced through the optional
// transport.Liveness interface. The runner turns those per-endpoint
// observations into one consistent cluster view through the convergence
// allreduce it already runs every step:
//
//   - every rank's vote carries a bitmap of the peers it holds in the
//     pending-rejoin state;
//   - rank 0's decision broadcast carries the authoritative down bitmap
//     (so every survivor reports the same DownProcs), a degraded bit (the
//     votes reached a fixed point while ranks were down), and an
//     activation bitmap — set for a pending rank once rank 0 and every
//     voter agree its rejoin handshake completed;
//   - every rank activates the named links immediately after the decision
//     exchange, at the same step boundary, so the transports' step-marker
//     streams stay aligned; rank 0 then releases each rejoiner with the
//     go payload: the current partition checksum plus the journal of
//     dynamic events the rank missed.
//
// The rejoiner (Rejoin) rebuilds deterministically: base graph + journal
// replay reproduce the survivors' exact topology (checksum-verified), the
// local AASHRD01 recovery shard restores its rows (fresh IA as fallback),
// every row re-seeds its incident direct edges (the restore soundness
// repair), and everything ships in full — the in-process engine's rejoin
// protocol, whose dirty cascade provably reconverges to the sequential
// oracle. Rank 0's own death is fatal to the run (it coordinates votes
// and decisions); surviving coordinator loss needs an election and is out
// of scope.
package rank

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"anytime/internal/change"
	"anytime/internal/core"
	"anytime/internal/dv"
	"anytime/internal/graph"
	"anytime/internal/obs"
	"anytime/internal/transport"
)

// Decision flag bits of the convergence broadcast.
const (
	decContinue = 1 << 0 // more steps needed
	decDegraded = 1 << 1 // votes converged while ranks were down
	decCleanFix = 1 << 2 // exact converged fixpoint: clear change frontiers
)

// QueueEvents queues dynamic events for application: they ship to every
// live rank inside the next data exchange and apply at that step boundary.
// Events enter through rank 0 (the intake of the stream).
func (r *Runner) QueueEvents(evs ...change.Event) error {
	if r.t.Rank() != 0 {
		return fmt.Errorf("rank %d: dynamic events enter through rank 0", r.t.Rank())
	}
	r.queued = append(r.queued, evs...)
	return nil
}

// shipEvents appends rank 0's queued events to the outgoing data-exchange
// messages, one copy per live rank (rank 0 itself included, via the
// transport's local loopback, so every rank applies through the same
// inbox path).
func (r *Runner) shipEvents(out []transport.Message) ([]transport.Message, error) {
	if r.t.Rank() != 0 || len(r.queued) == 0 {
		return out, nil
	}
	evs := r.queued
	r.queued = nil
	body, err := transport.EncodeEvents(evs)
	if err != nil {
		return nil, fmt.Errorf("rank 0: encoding dynamic events: %w", err)
	}
	for q := 0; q < r.t.Size(); q++ {
		if r.down[q] {
			continue // a down rank catches up from the journal at rejoin
		}
		out = append(out, transport.Message{
			To: q, Tag: transport.TagNewVertexRow, Bytes: len(body), Payload: evs,
		})
	}
	return out, nil
}

// drainLiveness folds the transport's liveness observations into the
// runner: spans for the tracer, and (on rank 0) the authoritative down set
// plus the degraded-mode patience clock.
func (r *Runner) drainLiveness() {
	if r.live == nil {
		return
	}
	for _, ev := range r.live.TakeLiveness() {
		switch ev.Kind {
		case transport.LiveDown:
			r.stats.PeerDownEvents++
			if r.t.Rank() == 0 {
				r.down[ev.Rank] = true
				r.rejoinDeadline = time.Now().Add(r.cfg.RejoinWait)
			}
			r.span(obs.KindCrash, ev.Rank, 0)
			if r.slog != nil {
				r.slog.Warn("peer down", "rank", r.t.Rank(), "peer", ev.Rank,
					"step", r.stats.Steps, "episode", r.outages+1)
			}
		case transport.LiveRejoin:
			// Activation already handled in applyDecision (stats + marks);
			// the event is the transport echoing it back.
		}
	}
}

// span records a crash/rejoin span on the configured tracer (nil-safe).
func (r *Runner) span(kind obs.Kind, proc int, value int64) {
	tr := r.cfg.Obs
	if !tr.Enabled() {
		return
	}
	tr.Record(obs.Span{Kind: kind, Proc: int32(proc), Rank: int32(r.t.Rank()),
		Step: int32(r.stats.Steps), Wall: tr.Now(), Value: value})
}

// voteConvergence is the "no more updates in any processor" allreduce,
// extended into the cluster's liveness consensus: every rank sends
// [vote | pending bitmap] to rank 0, which ORs the votes, resolves
// activations, and broadcasts [flags | down bitmap | activate bitmap].
// A rank votes to continue while boundary rows are dirty or the transport
// still holds messages in flight (a delayed delivery carries updates
// nobody has seen).
func (r *Runner) voteConvergence() (bool, error) {
	r.drainLiveness()
	P := r.t.Size()
	B := (P + 7) / 8
	vote := byte(0)
	if r.rs.HasUpdate() || r.t.InFlight() > 0 {
		vote = 1
	}
	payload := make([]byte, 1+B)
	payload[0] = vote
	if r.live != nil {
		for q := 0; q < P; q++ {
			if r.live.PendingRejoin(q) {
				payload[1+q/8] |= 1 << (q % 8)
			}
		}
	}
	var out []transport.Message
	if r.t.Rank() != 0 {
		out = []transport.Message{{To: 0, Tag: transport.TagControl, Bytes: len(payload), Payload: payload}}
	}
	in, err := r.t.Exchange(out)
	if err != nil {
		return false, fmt.Errorf("rank %d: convergence gather: %w", r.t.Rank(), err)
	}
	rawDecision := vote
	pendingAll := make([]bool, P)
	if r.t.Rank() == 0 && r.live != nil {
		for q := 0; q < P; q++ {
			pendingAll[q] = r.live.PendingRejoin(q)
		}
	}
	for _, msg := range in {
		switch msg.Tag {
		case transport.TagControl:
			if r.t.Rank() != 0 {
				continue
			}
			b, ok := msg.Payload.([]byte)
			if !ok || len(b) == 0 {
				continue
			}
			if b[0] != 0 {
				rawDecision = 1
			}
			// Activation needs unanimity: every voter must hold the rank
			// pending (its rejoin handshake reached everyone).
			for q := 0; q < P; q++ {
				if pendingAll[q] && (len(b) <= 1+q/8 || b[1+q/8]&(1<<(q%8)) == 0) {
					pendingAll[q] = false
				}
			}
		case transport.TagBoundaryDV:
			// A delayed boundary delivery released during the vote: keep
			// it for the next relax phase. Its sender voted to continue
			// (the message counted as in flight), so no step is lost.
			r.carry = append(r.carry, msg.Payload.([]*dv.Delta)...)
		}
	}
	decision := make([]byte, 1+2*B)
	if r.t.Rank() == 0 {
		r.buildDecision(decision, rawDecision, pendingAll)
	}
	msg, err := r.t.Broadcast(0, transport.Message{Tag: transport.TagControl, Bytes: len(decision), Payload: decision})
	if err != nil {
		return false, fmt.Errorf("rank %d: convergence broadcast: %w", r.t.Rank(), err)
	}
	if r.t.Rank() != 0 {
		b, ok := msg.Payload.([]byte)
		if !ok || len(b) < 1+2*B {
			return false, fmt.Errorf("rank %d: malformed convergence decision (%d bytes)", r.t.Rank(), len(b))
		}
		decision = b
	}
	return r.applyDecision(decision)
}

// buildDecision assembles rank 0's decision payload: the continue flag
// (forced on by pending activations, the MinSteps floor, and the
// degraded-mode patience window), the degraded bit, the authoritative down
// bitmap, and the activation bitmap.
func (r *Runner) buildDecision(decision []byte, rawDecision byte, pendingAll []bool) {
	P := r.t.Size()
	B := (P + 7) / 8
	anyDown, anyActivate := false, false
	for q := 0; q < P; q++ {
		if pendingAll[q] {
			anyActivate = true
			decision[1+B+q/8] |= 1 << (q % 8)
		} else if r.down[q] {
			anyDown = true
			decision[1+q/8] |= 1 << (q % 8)
		}
	}
	flags := byte(0)
	if rawDecision != 0 {
		flags |= decContinue
	}
	if rawDecision == 0 && anyDown {
		// The survivors reached a fixed point of the live traffic while
		// ranks are missing: a degraded convergence. Keep idle-stepping
		// within the patience window so a supervised relaunch can rejoin
		// and lift the result back to exact.
		flags |= decDegraded
		if time.Now().Before(r.rejoinDeadline) {
			flags |= decContinue
		}
	}
	if anyActivate || r.stats.Steps < r.cfg.MinSteps {
		// Activation must reconverge before stopping; MinSteps is the
		// chaos-test floor.
		flags |= decContinue
	}
	if rawDecision == 0 && !anyDown && !anyActivate {
		// Exact fixpoint with every rank alive and no rejoin in flight:
		// the change-frontier epoch closes here. Every rank clears its
		// frontier masks at this same broadcast-decided boundary (see
		// applyDecision), re-anchoring the masked min-plus skip rule at a
		// provably exact state — the multi-process mirror of the engine's
		// clear-on-convergence. A delayed boundary delivery cannot slip
		// past this bit: its sender counted it as in flight and voted to
		// continue, forcing rawDecision nonzero.
		flags |= decCleanFix
	}
	decision[0] = flags
}

// applyDecision applies the coordinator's decision on every rank: mirror
// the down set, record a degraded convergence once per outage, activate
// rejoined peers at this boundary (rank 0 then releases them with the go
// payload), and derive whether to keep stepping.
func (r *Runner) applyDecision(decision []byte) (bool, error) {
	P := r.t.Size()
	B := (P + 7) / 8
	flags := decision[0]
	anyDown := false
	for q := 0; q < P; q++ {
		d := decision[1+q/8]&(1<<(q%8)) != 0
		r.down[q] = d
		anyDown = anyDown || d
	}
	if flags&decDegraded != 0 && !r.degraded {
		r.degraded = true
		r.outages++
		r.stats.DegradedConvergences++
		r.downSeen = r.DownProcs()
		r.span(obs.KindCrash, -1, int64(len(r.downSeen)))
		if r.slog != nil {
			r.slog.Warn("degraded convergence", "rank", r.t.Rank(), "step", r.stats.Steps,
				"episode", r.outages, "down", fmt.Sprint(r.downSeen))
		}
	}
	var activated []int
	for q := 0; q < P; q++ {
		if decision[1+B+q/8]&(1<<(q%8)) == 0 {
			continue
		}
		activated = append(activated, q)
		if r.live != nil {
			r.live.Activate(q)
		}
		r.down[q] = false
		r.rs.MarkRejoinShipAll(int32(q))
		r.stats.Rejoins++
		r.rejoinsN.Add(1)
		r.span(obs.KindRejoin, q, 0)
		if r.slog != nil {
			r.slog.Info("peer rejoined", "rank", r.t.Rank(), "peer", q,
				"step", r.stats.Steps, "episode", r.outages)
		}
	}
	if !anyDown && len(activated) > 0 {
		r.degraded = false
	}
	if r.t.Rank() == 0 && r.live != nil && len(activated) > 0 {
		payload, err := r.goPayload()
		if err != nil {
			return false, err
		}
		for _, q := range activated {
			if err := r.live.SendRejoinGo(q, payload); err != nil {
				return false, fmt.Errorf("rank 0: releasing rejoined rank %d: %w", q, err)
			}
		}
	}
	if flags&decCleanFix != 0 && r.rs != nil {
		// Coordinator-announced exact fixpoint: every rank resets its
		// change-frontier bitmasks at this same step boundary, so the
		// frontier epochs — and therefore every masked-sweep decision —
		// stay identical across all deployment shapes.
		r.rs.ClearFrontiers()
	}
	more := flags&decContinue != 0
	if !more {
		r.converged = flags&decDegraded == 0
	}
	return more, nil
}

// goPayload builds the rejoin-go state digest: the partition checksum the
// rejoiner must independently re-derive (base graph + journal replay), the
// coordinator's step counter, and the dynamic-event journal itself.
func (r *Runner) goPayload() ([]byte, error) {
	journal, err := transport.EncodeEvents(r.log.Journal())
	if err != nil {
		return nil, fmt.Errorf("rank 0: encoding rejoin journal: %w", err)
	}
	payload := make([]byte, 16, 16+len(journal))
	putU64(payload[0:], partChecksum(r.part))
	putU64(payload[8:], uint64(r.stats.Steps))
	return append(payload, journal...), nil
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// Degraded reports whether the run is currently in degraded mode (a
// convergence fixed point was reached while ranks were down and no rejoin
// has completed yet).
func (r *Runner) Degraded() bool { return r.degraded }

// DownProcs returns the ranks currently held down by the coordinator's
// last decision — identical on every survivor.
func (r *Runner) DownProcs() []int {
	var procs []int
	for q, d := range r.down {
		if d {
			procs = append(procs, q)
		}
	}
	return procs
}

// DownSeen returns the DownProcs snapshot of the first degraded
// convergence — the outage report, preserved across the rejoin and
// reconvergence that follow.
func (r *Runner) DownSeen() []int { return r.downSeen }

// shardPath is this rank's recovery-shard file.
func (r *Runner) shardPath() string {
	return filepath.Join(r.cfg.ShardDir, fmt.Sprintf("aarank-%d.shard", r.t.Rank()))
}

// writeShard persists the rank's AASHRD01 recovery shard atomically
// (tmp + rename: a crash mid-write must not corrupt the previous shard).
// No-op unless ShardDir is set and the step cadence is due.
func (r *Runner) writeShard() {
	if r.cfg.ShardDir == "" || r.stats.Steps%r.cfg.ShardEvery != 0 {
		return
	}
	blob := core.EncodeShard(r.rs.Table(), r.stats.Steps)
	path := r.shardPath()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		// The shard is an optimization; the IA fallback covers a miss.
		if r.slog != nil {
			r.slog.Warn("shard write failed", "rank", r.t.Rank(), "step", r.stats.Steps, "err", err)
		}
		return
	}
	_ = os.Rename(tmp, path)
}

// Rejoin re-enters a computation as a restarted rank. The transport must
// be a rejoin endpoint (RejoinTCP / RejoinInproc) already holding pending
// links to the survivors. The sequence:
//
//  1. rebuild the base graph's deterministic partition (same inputs as
//     the original launch);
//  2. block until the coordinator activates this rank at a step boundary
//     and releases it with the go payload;
//  3. replay the dynamic-event journal from the payload, re-deriving the
//     survivors' exact topology and placement (checksum-verified);
//  4. restore local rows from the recovery shard — or recompute the IA
//     from scratch if the shard is missing or corrupt;
//  5. re-seed every row's incident direct edges and mark everything for
//     a full re-ship.
//
// The returned runner enters Run/Step exactly like a freshly launched
// rank; the survivors' forced reconvergence lifts the gathered matrix
// back to oracle-exact.
func Rejoin(t transport.Transport, cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	waiter, ok := t.(transport.RejoinWaiter)
	if !ok {
		return nil, fmt.Errorf("rank: transport is not a rejoin endpoint")
	}
	g := cfg.Graph
	part, err := decompose(cfg, t.Size())
	if err != nil {
		return nil, err
	}
	wait := cfg.RejoinWait
	if wait <= 0 {
		wait = 60 * time.Second
	}
	payload, err := waiter.AwaitRejoinGo(wait)
	if err != nil {
		return nil, fmt.Errorf("rank %d: rejoin: %w", t.Rank(), err)
	}
	if len(payload) < 16 {
		return nil, fmt.Errorf("rank %d: malformed rejoin payload (%d bytes)", t.Rank(), len(payload))
	}
	wantSum := getU64(payload)
	coordSteps := getU64(payload[8:])
	journal, err := transport.DecodeEvents(payload[16:])
	if err != nil {
		return nil, fmt.Errorf("rank %d: rejoin journal: %w", t.Rank(), err)
	}
	r := newRunner(t, cfg, g, part)
	// Adopt the coordinator's step counter: the rejoiner's span step IDs,
	// step-reporter gossip, and shard headers line up with the survivors',
	// so a merged trace reads the outage as one timeline.
	r.stats.Steps = int(coordSteps)
	if r.stepper != nil {
		r.stepper.MarkStep(int64(r.stats.Steps))
	}
	if err := r.log.Replay(g, part, journal); err != nil {
		return nil, fmt.Errorf("rank %d: %w", t.Rank(), err)
	}
	if sum := partChecksum(part); sum != wantSum {
		return nil, fmt.Errorf("rank %d: rejoin state checksum %x != coordinator %x (divergent graph, seed, or partitioner)",
			t.Rank(), sum, wantSum)
	}
	r.rs = core.NewProc(t.Rank(), g, part)
	restored := false
	if blob, rerr := os.ReadFile(r.shardPath()); rerr == nil {
		_, derr := r.rs.RestoreShard(blob, nil)
		restored = derr == nil
	}
	if !restored {
		// No shard survived: recompute the local-paths IA from scratch.
		r.stats.IAOps = r.rs.IA(r.rs.Table().Rows(), false, graph.Stats(g).UnitWeights, cfg.Workers)
		r.rs.ReseedDirectEdges()
	}
	r.rs.MarkAllShipAll()
	r.rejoinsN.Add(1)
	r.span(obs.KindRejoin, t.Rank(), 1)
	if r.slog != nil {
		r.slog.Info("rejoined computation", "rank", t.Rank(), "step", r.stats.Steps,
			"shard_restored", restored, "journal_events", len(journal))
	}
	return r, nil
}
