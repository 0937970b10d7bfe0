package kernel

import (
	"math/rand"
	"testing"

	"anytime/internal/graph"
)

// referenceMinPlus is the pre-extraction inner loop from the engine,
// kept as the semantic oracle for the kernel.
func referenceMinPlus(dst, src []graph.Dist, add graph.Dist) (lo, hi int) {
	lo, hi = len(src), 0
	for t, bt := range src {
		if t >= len(dst) {
			break
		}
		if bt == graph.InfDist {
			continue
		}
		if nd := add + bt; nd < dst[t] {
			dst[t] = nd
			if lo > t {
				lo = t
			}
			hi = t + 1
		}
	}
	return lo, hi
}

func randomRow(rng *rand.Rand, n int, infFrac float64) []graph.Dist {
	d := make([]graph.Dist, n)
	for i := range d {
		if rng.Float64() < infFrac {
			d[i] = graph.InfDist
		} else {
			d[i] = graph.Dist(rng.Intn(1000))
		}
	}
	return d
}

func TestMinPlusHopsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		srcLen := n
		if trial%3 == 0 {
			srcLen = 1 + rng.Intn(n) // shorter shipped snapshot
		}
		dst := randomRow(rng, n, 0.2)
		src := randomRow(rng, srcLen, 0.3)
		add := graph.Dist(rng.Intn(500))

		wantDst := append([]graph.Dist(nil), dst...)
		wlo, whi := referenceMinPlus(wantDst, src, add)

		lo, hi := MinPlusWindow(dst, src, add)
		if lo != wlo || hi != whi {
			t.Fatalf("trial %d: window (%d,%d), want (%d,%d)", trial, lo, hi, wlo, whi)
		}
		for i := range dst {
			if dst[i] != wantDst[i] {
				t.Fatalf("trial %d: index %d: got %d, want %d", trial, i, dst[i], wantDst[i])
			}
		}
	}
}

func TestMinPlusHopsWindow(t *testing.T) {
	inf := graph.InfDist
	dst := []graph.Dist{9, 9, 9, 9, 9}
	src := []graph.Dist{inf, 3, inf, 1, inf}
	lo, hi := MinPlusWindow(dst, src, 2)
	if lo != 1 || hi != 4 {
		t.Fatalf("window (%d,%d), want (1,4)", lo, hi)
	}
	want := []graph.Dist{9, 5, 9, 3, 9}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], want[i])
		}
	}

	// no improvement possible: empty window, nothing written
	lo, hi = MinPlusWindow(dst, src, 100)
	if lo < hi {
		t.Fatalf("expected empty window, got (%d,%d)", lo, hi)
	}
}

func TestMinPlusHopsOffsetSlicing(t *testing.T) {
	// Delta windows relax via a pre-sliced dst; the window comes back in
	// src index space.
	dst := []graph.Dist{0, 50, 50, 50}
	delta := []graph.Dist{4, graph.InfDist} // columns 2..3 of some row
	lo, hi := MinPlusWindow(dst[2:], delta, 10)
	if lo != 0 || hi != 1 {
		t.Fatalf("window (%d,%d), want (0,1)", lo, hi)
	}
	if dst[2] != 14 || dst[3] != 50 {
		t.Fatalf("offset relax wrong: %v", dst)
	}
}

func TestMinPlusMatchesHops(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(48)
		dst := randomRow(rng, n, 0.2)
		src := randomRow(rng, n, 0.3)
		add := graph.Dist(rng.Intn(300))
		dst2 := append([]graph.Dist(nil), dst...)

		changed := MinPlus(dst, src, add)
		lo, hi := MinPlusWindow(dst2, src, add)
		if changed != (lo < hi) {
			t.Fatalf("trial %d: changed=%v window=(%d,%d)", trial, changed, lo, hi)
		}
		for i := range dst {
			if dst[i] != dst2[i] {
				t.Fatalf("trial %d: index %d diverges", trial, i)
			}
		}
	}
}
