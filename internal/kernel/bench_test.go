package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"anytime/internal/graph"
)

// benchRows builds a relax workload where a controlled fraction of indices
// improves. 10% of src entries are unreachable; the rest are matched by dst
// entries already at the composed value (a failed relaxation) except for
// `improve` of them, which sit high enough that add+src wins. The sparse
// regime (2%) is what RC steady state looks like — most relaxations fail
// once the cascade is near convergence — while the dense regime (40%)
// stresses the store path right after a disturbance.
func benchRows(n int, improve float64, seed int64) (dst []graph.Dist, nh []int32, src []graph.Dist) {
	rng := rand.New(rand.NewSource(seed))
	dst = make([]graph.Dist, n)
	nh = make([]int32, n)
	src = make([]graph.Dist, n)
	const add = 3
	for i := range dst {
		nh[i] = -1
		if rng.Float64() < 0.1 {
			src[i] = graph.InfDist
			dst[i] = graph.Dist(500 + rng.Intn(500))
			continue
		}
		src[i] = graph.Dist(rng.Intn(1000))
		if rng.Float64() < improve {
			dst[i] = src[i] + add + graph.Dist(1+rng.Intn(50))
		} else {
			dst[i] = src[i]
		}
	}
	return dst, nh, src
}

// benchKernel relaxes one 4096-column row per iteration; the copy that
// resets the row is inside the timed loop.
func benchKernel(b *testing.B, improve float64) {
	dst, nh, src := benchRows(4096, improve, 1)
	work := append([]graph.Dist(nil), dst...)
	b.SetBytes(int64(4 * len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, dst)
		MinPlusHops(work, nh, src, 3, 7)
	}
}

// BenchmarkRCKernelHops gates the fixed cost of one call, not the
// streaming rate: most calls of a vertex-addition cycle relax delta
// windows of 16 to 63 columns (DESIGN.md §8), where the vector body only
// pays if entry, broadcast and exit stay near 10 ns. Rows are converged
// (nothing improves), the steady state of those calls; n=1000 is one
// benchmark-sized full row for scale.
func BenchmarkRCKernelHops(b *testing.B) {
	for _, n := range []int{8, 24, 56, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			dst, nh, src := benchRows(n, 0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MinPlusHops(dst, nh, src, 3, 7)
			}
		})
	}
}

// benchTile builds a refine-tile workload: one destination row relaxed
// through tileRows pivot rows that live either packed in a flat row-major
// arena (the dv.Matrix layout MinPlusTile streams) or as individually
// heap-allocated rows driven by a per-pivot MinPlusHops loop (the pre-PR
// layout). The relax arithmetic and apply order are identical — the pair
// isolates the memory-layout effect of streaming contiguous pivot rows.
func benchTile(b *testing.B, packed bool) {
	const n, tileRows = 4096, 32
	rng := rand.New(rand.NewSource(9))
	dst, nh, _ := benchRows(n, 0.02, 1)
	arena := make([]graph.Dist, tileRows*n)
	rows := make([][]graph.Dist, tileRows)
	offs := make([]int32, tileRows)
	owners := make([]int32, tileRows)
	for p := 0; p < tileRows; p++ {
		rows[p] = make([]graph.Dist, n)
		for t := 0; t < n; t++ {
			v := graph.Dist(rng.Intn(1000))
			if rng.Float64() < 0.1 {
				v = graph.InfDist
			}
			arena[p*n+t] = v
			rows[p][t] = v
		}
		offs[p] = int32(p)
		owners[p] = int32(rng.Intn(n))
		dst[owners[p]] = graph.Dist(1 + rng.Intn(4)) // pivots sit nearby
	}
	work := append([]graph.Dist(nil), dst...)
	b.SetBytes(int64(4 * n * tileRows))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, dst)
		if packed {
			MinPlusTile(work, nh, arena, n, offs, owners)
		} else {
			for p := range rows {
				add := work[owners[p]]
				if add == graph.InfDist {
					continue
				}
				MinPlusHops(work, nh, rows[p], add, nh[owners[p]])
			}
		}
	}
}

// maskedShape builds the mask of one BenchmarkRCKernelMasked case over n
// columns: band is the shape measured on absorb_cutedge (8 bits in one body
// word for the previous batch's columns, 16 in the last word for the new
// batch's), density=p sets each bit with probability p percent.
func maskedShape(n int, band bool, pct float64, rng *rand.Rand) Bitset {
	m := NewBitset(n)
	if band {
		m.SetRange(n/2, n/2+8)
		m.SetRange(n-16, n)
		return m
	}
	for t := 0; t < n; t++ {
		if rng.Float64()*100 < pct {
			m.Set(t)
		}
	}
	return m
}

// BenchmarkRCKernelMasked is one masked sweep of a 1,024-column converged
// row (nothing improves, as in most sweeps of a re-convergence) the way the
// engine runs it: the mask is compiled once, outside the timed loop, as a
// relax phase compiles a delta's or a pivot's frontier once and sweeps it
// over every row. MinPlusHopsMasked, which compiles per call, pays the
// word scan on top. The 25 % case is the density cutover; denser frontiers
// take the full-row kernel.
func BenchmarkRCKernelMasked(b *testing.B) {
	const n = 1024
	cases := []struct {
		name string
		band bool
		pct  float64
	}{{"band", true, 0}, {"density=1", false, 1}, {"density=3", false, 3}, {"density=12", false, 12}, {"density=25", false, 25}}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			dst, nh, src := benchRows(n, 0, 1)
			var m BlockMask
			m.Compile(nil, maskedShape(n, c.band, c.pct, rng), n)
			rec := NewBitset(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MinPlusHopsBlocks(dst, nh, src, 3, 7, &m, rec, 0)
			}
		})
	}
}

func BenchmarkRCKernelTileArena(b *testing.B) { benchTile(b, true) }

func BenchmarkRCKernelTilePerRow(b *testing.B) { benchTile(b, false) }

func BenchmarkRCKernelMinPlusHopsSparse(b *testing.B) { benchKernel(b, 0.02) }

func BenchmarkRCKernelMinPlusHopsDense(b *testing.B) { benchKernel(b, 0.40) }
