package transport

import "time"

// The liveness plane: every backend detects a dead peer (heartbeat
// timeouts over TCP, an explicit crash call in-process) and surfaces the
// death through Transport.TakeDown, and re-admits a restarted process
// through the rejoin handshake (PendingRejoin, Activate, SendRejoinGo,
// AwaitRejoinGo). The bulk-synchronous collectives keep working across a
// death by treating a down peer as contributing no traffic.
//
// Down is sticky: once a peer is marked down it stays down until the
// explicit rejoin handshake completes, even if its old connection flaps
// back to life. A restarted process re-enters the mesh in a *pending*
// state (links installed, no traffic) and is atomically integrated at a
// step boundary by the runner's consensus: every live rank reports its
// pending links in the convergence vote, rank 0 broadcasts the activation
// set in the decision, and every rank activates the link at the same
// exchange boundary — so the step-end marker streams stay aligned.

// splitmix64 is the seeded mixer behind the jittered backoff (and the
// fault plane's fate schedule) — deterministic, dependency-free.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jitterBackoff returns the pause before retry `attempt` (0-based):
// exponential growth from base, capped at cap_, scaled by a deterministic
// jitter factor in [0.5, 1.0) keyed on (seed, attempt). The jitter spreads
// a fleet of ranks redialing one restarted peer over half the window
// instead of thundering in lockstep.
func jitterBackoff(attempt int, base, cap_ time.Duration, seed uint64) time.Duration {
	d := base
	for i := 0; i < attempt && d < cap_; i++ {
		d *= 2
	}
	if d > cap_ {
		d = cap_
	}
	r := splitmix64(seed ^ uint64(attempt)*0x9e3779b97f4a7c15)
	frac := 0.5 + 0.5*float64(r>>11)/float64(1<<53)
	return time.Duration(float64(d) * frac)
}
