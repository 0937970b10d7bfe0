package transport

// The step-ID plane: cross-rank observability needs to know how far each
// peer has progressed through recombination without adding traffic. Every
// backend piggybacks Transport.MarkStep/PeerStep on machinery it already
// has — the TCP mesh stamps the sender's current RC step into the
// (otherwise unused) Seq field of every heartbeat frame, and the
// in-process hub keeps a shared step table — so a rank's metrics endpoint
// can export its peers' step positions (aa_rank_peer_step) and the
// cluster aggregator can compute step skew across real processes. Step IDs
// are observational only: nothing in the BSP collectives or the liveness
// protocol reads them.

// MarkStep implements Transport: the step rides the Seq field of every
// subsequent heartbeat frame, so peers learn it within one heartbeat
// interval at zero extra traffic.
func (t *TCP) MarkStep(step int64) { t.step.Store(step) }

// PeerStep implements Transport.
func (t *TCP) PeerStep(q int) int64 {
	if q == t.rank {
		return t.step.Load()
	}
	if q < 0 || q >= len(t.links) || t.links[q] == nil {
		return 0
	}
	return t.links[q].peerStep.Load()
}

// MarkStep implements Transport: in-process, the shared hub table *is*
// the gossip (peers see the step immediately instead of after a heartbeat
// interval — strictly fresher than TCP, same observational contract).
func (t *Inproc) MarkStep(step int64) {
	t.hub.mu.Lock()
	t.hub.steps[t.rank] = step
	t.hub.mu.Unlock()
}

// PeerStep implements Transport.
func (t *Inproc) PeerStep(q int) int64 {
	if q < 0 || q >= t.hub.Size() {
		return 0
	}
	t.hub.mu.Lock()
	defer t.hub.mu.Unlock()
	return t.hub.steps[q]
}
