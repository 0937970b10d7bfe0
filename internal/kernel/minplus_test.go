package kernel

import (
	"math/rand"
	"testing"

	"anytime/internal/graph"
)

// These tests hold the body init selected (reached through the exported
// entry points; minplus_amd64_test.go asserts it is the vector one where
// the machine has AVX2) to the scalar body on the whole non-negative
// domain: identical dst and window, and nothing written outside the
// relaxed overlap.

const guard = 8 // sentinel elements on both sides of every row

// guarded allocates a row of n elements starting off elements into a
// backing array with sentinels on both sides, so the row starts at every
// alignment mod 8 and a store outside it is visible.
func guarded(n, off int) (backing, row []int32) {
	backing = make([]int32, guard+off+n+guard)
	for i := range backing {
		backing[i] = -7
	}
	return backing, backing[guard+off : guard+off+n : guard+off+n]
}

// fillDist derives non-negative distances from fuzz bytes: unreachable,
// small, mid-range and just below InfDist.
func fillDist(row []graph.Dist, raw []byte, salt int) {
	for i := range row {
		var b byte
		if len(raw) > 0 {
			b = raw[(i*7+salt)%len(raw)]
		}
		switch v := graph.Dist(b >> 2); (int(b) + salt) & 3 {
		case 0:
			row[i] = graph.InfDist
		case 1:
			row[i] = v
		case 2:
			row[i] = v * 30_000_000
		default:
			row[i] = graph.InfDist - 1 - v
		}
	}
}

type minPlusCase struct {
	dstBack  []int32 // guarded backing of dst
	dst, src []graph.Dist
	overlap  int // columns both dst and src have
	at       int // dst's offset within dstBack
	add      graph.Dist
}

// newCase builds one differential input from fuzz arguments: length 0–300,
// dst pre-sliced at off mod 8, src longer or shorter than dst by
// srcDelta, add anywhere in [0, InfDist). With sparse set, all but about
// one column in 16 are lowered to their relaxed value first, so whole
// vector groups fail and the improving ones are isolated — the shape of RC
// near convergence.
func newCase(raw []byte, n uint16, off uint8, srcDelta int8, add int32, sparse bool) *minPlusCase {
	c := &minPlusCase{add: add, at: guard + int(off%8)}
	if c.add < 0 {
		c.add = ^c.add
	}
	if c.add == graph.InfDist {
		c.add--
	}
	dstLen := int(n % 301)
	srcLen := dstLen + int(srcDelta%9)
	if srcLen < 0 {
		srcLen = 0
	}
	c.overlap = dstLen
	if srcLen < dstLen {
		c.overlap = srcLen
	}
	_, c.src = guarded(srcLen, (c.at+3)%8)
	c.dstBack, c.dst = guarded(dstLen, c.at-guard)
	fillDist(c.src, raw, 1)
	fillDist(c.dst, raw, 2)
	if sparse {
		for i := 0; i < c.overlap; i++ {
			if len(raw) > 0 && raw[i%len(raw)]%16 == 0 {
				continue
			}
			if nd := int64(c.add) + int64(c.src[i]); nd < int64(c.dst[i]) {
				c.dst[i] = graph.Dist(nd)
			}
		}
	}
	return c
}

func sameBacking(t *testing.T, what string, got, want []int32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, want %d", what, i-guard, got[i], want[i])
		}
	}
}

// addCases seeds a fuzz target with every length 0–300 at a rotating
// offset, length mismatch and add, in both regimes, so a plain `go test`
// already covers every n mod 32 remainder at every alignment.
func addCases(f *testing.F) {
	rng := rand.New(rand.NewSource(12))
	adds := []int32{0, 1, 3, 1 << 20, graph.InfDist / 2, graph.InfDist - 1}
	for n := 0; n <= 300; n++ {
		raw := make([]byte, 1+rng.Intn(64))
		rng.Read(raw)
		f.Add(raw, uint16(n), uint8(n), int8(n%7-3), adds[n%len(adds)], int32(n), n%2 == 0)
	}
}

func FuzzMinPlusHops(f *testing.F) {
	addCases(f)
	f.Fuzz(func(t *testing.T, raw []byte, n uint16, off uint8, srcDelta int8, add, _ int32, sparse bool) {
		c := newCase(raw, n, off, srcDelta, add, sparse)
		wantDst := append([]int32(nil), c.dstBack...)
		wantLo, wantHi := minPlusGeneric(wantDst[c.at:c.at+c.overlap], c.src[:c.overlap], c.add)

		lo, hi := MinPlusWindow(c.dst, c.src, c.add)
		if lo != wantLo || hi != wantHi {
			t.Fatalf("dst=%d src=%d add=%d: window (%d,%d), want (%d,%d)", len(c.dst), len(c.src), c.add, lo, hi, wantLo, wantHi)
		}
		sameBacking(t, "dst", c.dstBack, wantDst)
	})
}

func FuzzMinPlus(f *testing.F) {
	addCases(f)
	f.Fuzz(func(t *testing.T, raw []byte, n uint16, off uint8, srcDelta int8, add, _ int32, sparse bool) {
		c := newCase(raw, n, off, srcDelta, add, sparse)
		wantDst := append([]int32(nil), c.dstBack...)
		lo, hi := minPlusGeneric(wantDst[c.at:c.at+c.overlap], c.src[:c.overlap], c.add)
		want := lo < hi

		if got := MinPlus(c.dst, c.src, c.add); got != want {
			t.Fatalf("dst=%d src=%d add=%d: changed=%v, want %v", len(c.dst), len(c.src), c.add, got, want)
		}
		sameBacking(t, "dst", c.dstBack, wantDst)
	})
}
