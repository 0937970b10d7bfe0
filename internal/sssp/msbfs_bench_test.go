package sssp

import (
	"fmt"
	"testing"

	"anytime/internal/gen"
	"anytime/internal/graph"
	"anytime/internal/partition"
)

// BenchmarkMultiSourceBFS times the unit-weight IA on Barabási–Albert
// graphs (m=3): "all" searches from every vertex over the whole graph (the
// warm start's global IA), "part" from one part of a 4-way multilevel
// partition under its local mask (the paper's local IA). One op is one
// MultiSourceBFS call at workers=1; the rows are reset outside the timer.
func BenchmarkMultiSourceBFS(b *testing.B) {
	for _, n := range []int{1000, 4000} {
		g, err := gen.BarabasiAlbert(n, 3, gen.Weights{}, 1)
		if err != nil {
			b.Fatal(err)
		}
		part, err := partition.Multilevel{Seed: 1}.Partition(g, 4)
		if err != nil {
			b.Fatal(err)
		}
		mask := make([]bool, n)
		var local []int32
		for v, p := range part.Part {
			if p == 0 {
				mask[v] = true
				local = append(local, int32(v))
			}
		}
		all := make([]int32, n)
		for v := range all {
			all[v] = int32(v)
		}
		for _, c := range []struct {
			name    string
			sources []int32
			mask    []bool
		}{{"all", all, nil}, {"part", local, mask}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, c.name), func(b *testing.B) {
				rows := make([][]graph.Dist, len(c.sources))
				for i := range rows {
					rows[i] = make([]graph.Dist, n)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					for j, s := range c.sources {
						resetRow(rows[j], s)
					}
					b.StartTimer()
					benchOps = MultiSourceBFS(g, c.sources, rows, c.mask, 1)
				}
			})
		}
	}
}

var benchOps int64

// resetRow makes row a fresh IA row for src: InfDist except row[src] = 0.
func resetRow(row []graph.Dist, src int32) {
	for i := range row {
		row[i] = graph.InfDist
	}
	row[src] = 0
}
