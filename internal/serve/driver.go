package serve

import (
	"fmt"
	"time"

	"anytime/internal/core"
	"anytime/internal/stream"
)

// Admit validates a batch of dynamic events against the admitted-so-far
// graph shape and appends it to the admission queue, blocking up to
// Config.AdmitWait when the queue is full (bounded backpressure). The
// batch is admitted atomically: either every event enters the queue in
// order, or none does. Vertex joins must use dense increasing IDs — the
// next join's ID is the current vertex count over everything admitted so
// far (see SnapshotMeta.Vertices plus the queue depth, or generate the
// events with package stream against the same base graph).
func (s *Server) Admit(evs []stream.Event) error {
	if len(evs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var deadline time.Time
	for !s.closed && len(s.pending) > 0 && len(s.pending)+len(evs) > s.cfg.QueueCapacity {
		if deadline.IsZero() {
			deadline = time.Now().Add(s.cfg.AdmitWait)
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			s.counters.EventsRejectedBackpressure.Add(int64(len(evs)))
			return ErrBackpressure
		}
		// sync.Cond has no timed wait: arm a broadcast at the deadline so
		// the loop re-checks and can give up.
		t := time.AfterFunc(wait, s.cond.Broadcast)
		s.cond.Wait()
		t.Stop()
	}
	if s.closed {
		return ErrClosed
	}
	if err := s.validateLocked(evs); err != nil {
		s.counters.EventsRejectedInvalid.Add(int64(len(evs)))
		return err
	}
	s.pending = append(s.pending, evs...)
	s.counters.EventsAdmitted.Add(int64(len(evs)))
	s.counters.PendingEvents.Store(int64(len(s.pending)))
	s.cond.Broadcast()
	return nil
}

// validateLocked dry-runs evs against the admitted graph shape (vertex
// count and deletions) with stream.Check, committing the shape change only
// if every event is valid.
func (s *Server) validateLocked(evs []stream.Event) error {
	n, deleted, err := stream.Check(evs, s.admitN, s.deleted)
	if err != nil {
		return err
	}
	s.admitN = n
	for v := range deleted {
		s.deleted[v] = true
	}
	return nil
}

// drive is the background driver loop: hand admitted events to the engine
// (at most MaxEventsPerStep per step), take one RC step, repeat; block
// when converged with nothing admitted; on Close, drain everything,
// converge, publish the final view, and checkpoint.
//
// The loop is hardened against engine failure: a panicking or erroring
// step triggers a restart from the last checkpoint (Config.CheckpointPath)
// — events applied since that checkpoint are lost and counted in
// Counters.EventsLost, the availability/at-most-once trade the hardened
// path makes. Without a restorable checkpoint the driver dies: admission
// stops with ErrClosed, reads keep serving the last published View, and
// /healthz turns 503.
func (s *Server) drive() {
	defer close(s.driverDone)
	for {
		e := s.engine()
		// The engine applies one queued change event per RC step; take new
		// admitted work only once its internal queue has drained, so event
		// order (joins before the edges that reference them) is preserved.
		if e.QueuedEvents() == 0 {
			evs, closing := s.take(e.Converged())
			if closing {
				s.finish(evs)
				return
			}
			s.ingest(evs)
		}
		if s.held {
			s.awaitRelease()
		}
		if err := s.safeStep(e); err != nil {
			if rerr := s.restart(err); rerr != nil {
				s.die(rerr)
				return
			}
			continue
		}
		s.counters.EngineQueued.Store(int64(e.QueuedEvents()))
		s.maybeCheckpoint(e)
		if d := s.cfg.stepDelay; d > 0 {
			time.Sleep(d)
		}
	}
}

// awaitRelease parks a held driver (Server.held) before an RC step until a
// step is released or the server closes; closing releases every step.
func (s *Server) awaitRelease() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.released == 0 && !s.closed {
		s.parked = true
		s.cond.Broadcast()
		s.cond.Wait()
	}
	s.parked = false
	if s.released > 0 {
		s.released--
	}
}

// engine returns the current engine (it is swapped by restart; driver
// goroutine and tests read it through here).
func (s *Server) engine() *core.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng
}

// safeStep takes one RC step with a panic guard, surfacing both panics and
// the engine's own unrecoverable errors as step failures.
func (s *Server) safeStep(e *core.Engine) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: engine panic: %v", r)
		}
	}()
	if s.failNextStep.CompareAndSwap(true, false) {
		return errInducedFailure
	}
	e.Step()
	return e.Err()
}

// errInducedFailure is the test hook's step failure (see failNextStep).
var errInducedFailure = fmt.Errorf("serve: induced step failure (test hook)")

// maybeCheckpoint writes a periodic checkpoint every CheckpointEvery
// successful steps (atomic temp-file + rename). Steps where the engine
// cannot checkpoint (queued events, crashed processors) are skipped and
// retried on the next one.
func (s *Server) maybeCheckpoint(e *core.Engine) {
	if s.cfg.CheckpointPath == "" || s.cfg.CheckpointEvery <= 0 {
		return
	}
	s.sinceCheckpoint++
	if s.sinceCheckpoint < s.cfg.CheckpointEvery || e.QueuedEvents() > 0 {
		return
	}
	if err := s.writeCheckpoint(s.cfg.CheckpointPath); err != nil {
		return // e.g. a processor is down; retry next step
	}
	s.sinceCheckpoint = 0
	s.counters.CheckpointsWritten.Add(1)
	if l := s.cfg.Log; l != nil {
		l.Info("checkpoint written", "path", s.cfg.CheckpointPath,
			"step", int(e.Metrics().RCSteps))
	}
}

// restart recovers from a failed step: the engine is rebuilt from the last
// checkpoint and the serving layer resynchronizes to it. Everything the
// dead engine had not durably checkpointed — its internal change queue and
// the whole admission queue (their vertex IDs were assigned against the
// lost state) — is dropped and counted in EventsLost.
func (s *Server) restart(cause error) error {
	path := s.cfg.CheckpointPath
	if path == "" {
		return fmt.Errorf("serve: engine failed with no checkpoint configured: %w", cause)
	}
	lost := int64(s.eng.QueuedEvents())
	ne, err := core.RestoreFile(path, s.eng.Options())
	if err != nil {
		return fmt.Errorf("serve: restoring checkpoint after engine failure (%v): %w", cause, err)
	}
	// Rebase the rendered engine counters so scrapes never observe a
	// backwards step. The delta is computed against the last *published*
	// metrics (what scrapers could have seen), not the dead engine's live
	// ones: rendered values stay constant through the swap and resume
	// climbing from there.
	s.metrics.rebase(s.store.load().Metrics, ne.Metrics())
	s.mu.Lock()
	lost += int64(len(s.pending))
	s.pending = nil
	n := ne.Graph().NumVertices()
	s.admitN = n
	s.nextID = int32(n)
	s.deleted = map[int32]bool{}
	for v := int32(0); int(v) < n; v++ {
		if !ne.Alive(v) {
			s.deleted[v] = true
		}
	}
	s.eng = ne
	s.cond.Broadcast() // space freed for blocked admitters
	s.mu.Unlock()
	s.counters.EventsLost.Add(lost)
	s.counters.PendingEvents.Store(0)
	s.counters.EngineQueued.Store(0)
	s.counters.EngineRestarts.Add(1)
	ne.SetStepHook(s.onStep)
	s.publish()
	if l := s.cfg.Log; l != nil {
		l.Warn("engine restarted from checkpoint", "cause", cause.Error(),
			"checkpoint", path, "events_lost", lost,
			"restored_step", int(ne.Metrics().RCSteps))
	}
	return nil
}

// die is the unrecoverable path: record the error, stop admission, and let
// reads keep serving the last published View.
func (s *Server) die(err error) {
	if l := s.cfg.Log; l != nil {
		l.Error("driver died; serving last published view read-only", "cause", err.Error())
	}
	s.mu.Lock()
	s.closed = true
	s.dead = true
	s.closeErr = err
	s.cond.Broadcast()
	s.mu.Unlock()
}

// take removes up to MaxEventsPerStep admitted events, blocking while the
// engine is converged and nothing is admitted (the idle state). When the
// server is closing it returns every remaining event and closing=true.
func (s *Server) take(converged bool) (evs []stream.Event, closing bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// converged cannot go stale while waiting: the driver is the only
	// goroutine that mutates the engine.
	for !s.closed && len(s.pending) == 0 && converged {
		s.cond.Wait()
	}
	n := len(s.pending)
	if s.closed {
		evs, s.pending = s.pending, nil
		closing = true
	} else {
		if n > s.cfg.MaxEventsPerStep {
			n = s.cfg.MaxEventsPerStep
		}
		evs = append([]stream.Event(nil), s.pending[:n]...)
		s.pending = s.pending[n:]
	}
	s.counters.PendingEvents.Store(int64(len(s.pending)))
	if len(evs) > 0 {
		s.cond.Broadcast() // space freed for blocked admitters
	}
	return evs, closing
}

// ingest hands one window of admitted events to the engine's change queue.
func (s *Server) ingest(evs []stream.Event) {
	if len(evs) == 0 {
		return
	}
	if err := stream.QueueWindow(s.eng, evs, &s.nextID); err != nil {
		// Admission validation makes this unreachable in practice; count
		// and keep serving rather than tearing the driver down.
		s.counters.EventsDropped.Add(int64(len(evs)))
		return
	}
	s.counters.EventsIngested.Add(int64(len(evs)))
}

// finish is the graceful-shutdown path: drain the last admitted events,
// step the engine until its change queue is empty, converge, force a final
// publish, and checkpoint.
func (s *Server) finish(evs []stream.Event) {
	e := s.eng
	s.ingest(evs)
	for e.QueuedEvents() > 0 {
		e.Step()
	}
	e.Run()
	s.counters.EngineQueued.Store(0)
	s.publish()
	if p := s.cfg.CheckpointPath; p != "" {
		if s.closeErr = s.writeCheckpoint(p); s.closeErr == nil {
			s.counters.CheckpointsWritten.Add(1)
		}
	}
}

// onStep is the engine step hook (runs on the driver goroutine, at the end
// of every RC step): publish every PublishEvery steps, and always on
// convergence so the exact state becomes visible immediately.
func (s *Server) onStep(st core.StepStats) {
	s.metrics.observeStep(st)
	s.sincePublish++
	if s.sincePublish >= s.cfg.PublishEvery || st.ConvergedAfter {
		s.publish()
	}
}

// publish captures an engine snapshot, builds the top-k index, and swaps
// the new immutable View in atomically. Driver goroutine only.
func (s *Server) publish() {
	snap := s.eng.Snapshot()
	g := s.eng.Graph()
	s.version++
	s.sincePublish = 0
	v := &View{
		Version:    s.version,
		Step:       snap.Step,
		Converged:  snap.Converged,
		Vertices:   g.NumVertices(),
		Edges:      g.NumEdges(),
		QueueDepth: int(s.counters.PendingEvents.Load()) + s.eng.QueuedEvents(),
		Published:  time.Now(),
		Snap:       snap,
		Metrics:    s.eng.Metrics(),
		topk:       snap.TopK(s.cfg.TopKIndex),
	}
	s.store.publish(v)
	s.counters.Publishes.Add(1)
}
