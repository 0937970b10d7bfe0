package transport

import (
	"testing"
	"time"
)

// TestTCPStepGossip checks the step-ID plane over real links: MarkStep on
// one endpoint must surface via PeerStep on its peers within a heartbeat
// interval, with zero extra frames beyond the existing keepalives.
func TestTCPStepGossip(t *testing.T) {
	ts, _, _ := newLiveMesh(t, 3, 10*time.Millisecond, time.Second)

	ts[0].MarkStep(7)
	if got := ts[0].PeerStep(0); got != 7 {
		t.Fatalf("own step = %d, want 7", got)
	}
	for _, q := range []int{1, 2} {
		q := q
		waitFor(t, 2*time.Second, "step gossip", func() bool {
			return ts[q].PeerStep(0) == 7
		})
	}

	ts[1].MarkStep(9)
	waitFor(t, 2*time.Second, "rank 1 step at rank 0", func() bool {
		return ts[0].PeerStep(1) == 9
	})
	// Out-of-range peers are harmless.
	if got := ts[0].PeerStep(99); got != 0 {
		t.Fatalf("PeerStep(99) = %d, want 0", got)
	}
}

// TestInprocStepTable checks the in-process backend's shared step table,
// including a step marked through the Lossy fault wrapper.
func TestInprocStepTable(t *testing.T) {
	group := NewInprocGroup(3)
	lossy := WithFaults(group[1], &scriptHook{budget: 1})
	lossy.MarkStep(4)
	if got := group[0].PeerStep(1); got != 4 {
		t.Fatalf("hub step table: rank 0 sees rank 1 at %d, want 4", got)
	}
	if got := group[2].PeerStep(2); got != 0 {
		t.Fatalf("unmarked rank must report 0, got %d", got)
	}
}
