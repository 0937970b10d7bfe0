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
func benchRows(n int, improve float64, seed int64) (dst, src []graph.Dist) {
	rng := rand.New(rand.NewSource(seed))
	dst = make([]graph.Dist, n)
	src = make([]graph.Dist, n)
	const add = 3
	for i := range dst {
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
	return dst, src
}

// benchKernel relaxes one 4096-column row per iteration; the copy that
// resets the row is inside the timed loop.
func benchKernel(b *testing.B, improve float64) {
	dst, src := benchRows(4096, improve, 1)
	work := append([]graph.Dist(nil), dst...)
	b.SetBytes(int64(4 * len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, dst)
		MinPlusWindow(work, src, 3)
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
			dst, src := benchRows(n, 0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MinPlusWindow(dst, src, 3)
			}
		})
	}
}

// benchTile builds a refine-tile workload: one destination row relaxed
// through tileRows pivot rows that live either packed in a flat row-major
// arena (the dv.Matrix layout MinPlusTile streams) or as individually
// heap-allocated rows driven by a per-pivot MinPlusWindow loop (the
// pre-arena layout). The relax arithmetic and apply order are identical — the pair
// isolates the memory-layout effect of streaming contiguous pivot rows.
func benchTile(b *testing.B, packed bool) {
	const n, tileRows = 4096, 32
	rng := rand.New(rand.NewSource(9))
	dst, _ := benchRows(n, 0.02, 1)
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
			MinPlusTile(work, nil, arena, n, offs, owners)
		} else {
			for p := range rows {
				add := work[owners[p]]
				if add == graph.InfDist {
					continue
				}
				MinPlusWindow(work, rows[p], add)
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
			dst, src := benchRows(n, 0, 1)
			var m BlockMask
			m.Compile(nil, maskedShape(n, c.band, c.pct, rng), n)
			rec := NewBitset(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MinPlusBlocks(dst, src, 3, &m, rec, 0)
			}
		})
	}
}

// BenchmarkRCKernelGroup is the converged per-processor chunk of a BA
// n=1000, P=4 refine pass: 250 destination rows relaxed through a 32-pivot
// tile of 1,000-column rows. "grouped" runs the tile the way the engine
// does: GroupK pivots at a time, each run prepared once as a Group, rows
// inner. "per-pivot" is the loop it replaced: rows outer, MinPlusWindow per
// pivot with the add re-read between pivots. In "converged" no composition
// improves, the steady state of every RC step after the first; in
// "improve=2%" 2 % of each row's columns sit above their relaxed value, as
// in an early step. The rows are reset outside the timed region.
func BenchmarkRCKernelGroup(b *testing.B) {
	const rows, pivots, n = 250, 32, 1000
	rng := rand.New(rand.NewSource(17))
	arena := make([]graph.Dist, pivots*n)
	offs := make([]int32, pivots)
	owners := make([]int32, pivots)
	for p := range offs {
		offs[p], owners[p] = int32(p), int32(rng.Intn(n))
		for t := 0; t < n; t++ {
			arena[p*n+t] = graph.Dist(rng.Intn(1000))
		}
		arena[p*n+int(owners[p])] = 0
	}
	fixed := make([][]graph.Dist, rows)
	for r := range fixed {
		row := make([]graph.Dist, n)
		for t := range row {
			row[t] = graph.Dist(2000 + rng.Intn(1000))
		}
		for _, o := range owners {
			row[o] = graph.Dist(1 + rng.Intn(4))
		}
		for { // the tile's fixpoint
			if lo, hi, _ := MinPlusTile(row, nil, arena, n, offs, owners); lo >= hi {
				break
			}
		}
		fixed[r] = row
	}
	var groups [pivots / GroupK]Group
	for c := range groups {
		for p := c * GroupK; p < (c+1)*GroupK; p++ {
			groups[c].Push(arena[p*n:(p+1)*n], 0, owners[p])
		}
		groups[c].Prepare(n)
	}
	for _, improve := range []float64{0, 0.02} {
		start := make([][]graph.Dist, rows)
		for r, row := range fixed {
			start[r] = append([]graph.Dist(nil), row...)
			for t := range row {
				if rng.Float64() < improve {
					start[r][t] += graph.Dist(1 + rng.Intn(50))
				}
			}
		}
		work := make([][]graph.Dist, rows)
		for r := range work {
			work[r] = make([]graph.Dist, n)
		}
		name := "converged"
		if improve > 0 {
			name = fmt.Sprintf("improve=%g%%", improve*100)
		}
		for _, grouped := range []bool{true, false} {
			sub := name + "/grouped"
			if !grouped {
				sub = name + "/per-pivot"
			}
			b.Run(sub, func(b *testing.B) {
				b.SetBytes(int64(4 * rows * pivots * n))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					for r := range work {
						copy(work[r], start[r])
					}
					b.StartTimer()
					if grouped {
						for c := range groups {
							for _, row := range work {
								groups[c].Relax(row, nil)
							}
						}
						continue
					}
					for _, row := range work {
						for p, o := range owners {
							if add := row[o]; add != graph.InfDist {
								MinPlusWindow(row, arena[p*n:(p+1)*n], add)
							}
						}
					}
				}
			})
		}
	}
}

func BenchmarkRCKernelTileArena(b *testing.B) { benchTile(b, true) }

func BenchmarkRCKernelTilePerRow(b *testing.B) { benchTile(b, false) }

func BenchmarkRCKernelMinPlusHopsSparse(b *testing.B) { benchKernel(b, 0.02) }

func BenchmarkRCKernelMinPlusHopsDense(b *testing.B) { benchKernel(b, 0.40) }
