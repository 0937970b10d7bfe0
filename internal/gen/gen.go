// Package gen provides deterministic, seeded random graph generators used as
// workloads: Barabási–Albert scale-free graphs (the paper's Pajek-generated
// inputs), planted-partition (SBM) community graphs, R-MAT, random
// geometric (sensor-network) graphs, and the vertex-addition batch
// generator that carves community-structured batches out of a reservoir
// graph.
package gen

import (
	"fmt"
	"math/rand"

	"anytime/internal/graph"
)

// Weights controls edge-weight assignment for generators.
type Weights struct {
	Min graph.Weight // minimum weight (inclusive); 0 means unit weights
	Max graph.Weight // maximum weight (inclusive)
}

func (w Weights) draw(rng *rand.Rand) graph.Weight {
	if w.Min <= 0 || w.Max < w.Min {
		return 1
	}
	if w.Min == w.Max {
		return w.Min
	}
	return w.Min + graph.Weight(rng.Intn(int(w.Max-w.Min)+1))
}

// BarabasiAlbert generates a scale-free graph with n vertices via
// preferential attachment: it starts from a small clique of m0 = m+1
// vertices and attaches every subsequent vertex with m edges whose targets
// are chosen proportionally to current degree. Matches the regime of the
// paper's Pajek scale-free inputs.
func BarabasiAlbert(n, m int, w Weights, seed int64) (*graph.Graph, error) {
	if m < 1 {
		return nil, fmt.Errorf("gen: BarabasiAlbert m=%d < 1", m)
	}
	if n < m+1 {
		return nil, fmt.Errorf("gen: BarabasiAlbert n=%d too small for m=%d", n, m)
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	// repeated-targets list for O(1) preferential sampling
	targets := make([]int32, 0, 2*n*m)
	m0 := m + 1
	for u := 0; u < m0; u++ {
		for v := u + 1; v < m0; v++ {
			g.MustAddEdge(u, v, w.draw(rng))
			targets = append(targets, int32(u), int32(v))
		}
	}
	seen := make(map[int32]bool, m)
	chosen := make([]int32, 0, m)
	for v := m0; v < n; v++ {
		for _, t := range chosen {
			delete(seen, t)
		}
		chosen = chosen[:0]
		for len(chosen) < m {
			t := targets[rng.Intn(len(targets))]
			if seen[t] {
				continue
			}
			seen[t] = true
			chosen = append(chosen, t)
		}
		for _, t := range chosen {
			g.MustAddEdge(v, int(t), w.draw(rng))
			targets = append(targets, int32(v), t)
		}
	}
	return g, nil
}

// PlantedPartition generates an SBM/planted-partition graph: n vertices in
// c equal communities, with intra-community edge probability pin and
// inter-community probability pout. Community labels are returned alongside.
func PlantedPartition(n, c int, pin, pout float64, w Weights, seed int64) (*graph.Graph, []int32, error) {
	if c < 1 || n < c {
		return nil, nil, fmt.Errorf("gen: PlantedPartition needs 1<=c<=n, got c=%d n=%d", c, n)
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	label := make([]int32, n)
	for v := range label {
		label[v] = int32(v * c / n) // contiguous blocks
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := pout
			if label[u] == label[v] {
				p = pin
			}
			if rng.Float64() < p {
				g.MustAddEdge(u, v, w.draw(rng))
			}
		}
	}
	return g, label, nil
}

// RMAT generates a recursive-matrix graph with 2^scale vertices and m
// distinct undirected edges using partition probabilities a, b, c
// (d = 1-a-b-c). Self-loops and duplicates are resampled.
func RMAT(scale, m int, a, b, c float64, w Weights, seed int64) (*graph.Graph, error) {
	if a+b+c >= 1 {
		return nil, fmt.Errorf("gen: RMAT probabilities a+b+c=%.3f must be < 1", a+b+c)
	}
	n := 1 << scale
	maxEdges := int64(n) * int64(n-1) / 2
	if int64(m) > maxEdges/2 {
		return nil, fmt.Errorf("gen: RMAT m=%d too dense for scale=%d", m, scale)
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for g.NumEdges() < m {
		u, v := 0, 0
		for bit := scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < a:
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v, w.draw(rng))
	}
	return g, nil
}

// Connectify adds minimum-weight edges joining the connected components of
// g so the result is connected. It mutates g in place and returns the
// number of edges added. Experiment graphs are connectified so closeness
// is defined for every vertex.
func Connectify(g *graph.Graph, seed int64) int {
	comp, k := graph.ConnectedComponents(g)
	if k <= 1 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	// one representative per component
	rep := make([]int, k)
	for i := range rep {
		rep[i] = -1
	}
	for v, c := range comp {
		if rep[c] == -1 {
			rep[c] = v
		}
	}
	added := 0
	for c := 1; c < k; c++ {
		u := rep[rng.Intn(c)] // attach to a random earlier component rep
		if err := g.AddEdge(rep[c], u, 1); err == nil {
			added++
		}
	}
	return added
}

// RandomGeometric generates a random geometric graph: n vertices placed
// uniformly in the unit square, connected when within Euclidean distance
// `radius`. This is the standard model for the sensor-network workloads
// the paper's introduction motivates. Edge weights are drawn from w (unit
// by default); a grid bucketing keeps generation near O(n + m).
func RandomGeometric(n int, radius float64, w Weights, seed int64) (*graph.Graph, error) {
	if radius <= 0 || radius > 1.5 {
		return nil, fmt.Errorf("gen: RandomGeometric radius %g outside (0, 1.5]", radius)
	}
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	cells := int(1 / radius)
	if cells < 1 {
		cells = 1
	}
	// cell[i] is point i's grid cell cx*cells+cy, the coordinates clamped
	// so points on the far edges land in the last row/column.
	cell := make([]int, n)
	grid := make(map[int][]int32, n)
	for i := 0; i < n; i++ {
		cx, cy := min(int(xs[i]*float64(cells)), cells-1), min(int(ys[i]*float64(cells)), cells-1)
		cell[i] = cx*cells + cy
		grid[cell[i]] = append(grid[cell[i]], int32(i))
	}
	g := graph.New(n)
	r2 := radius * radius
	for i := 0; i < n; i++ {
		cx, cy := cell[i]/cells, cell[i]%cells
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				nx, ny := cx+dx, cy+dy
				if nx < 0 || ny < 0 || nx >= cells || ny >= cells {
					continue
				}
				for _, j := range grid[nx*cells+ny] {
					if int(j) <= i {
						continue
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						g.MustAddEdge(i, int(j), w.draw(rng))
					}
				}
			}
		}
	}
	return g, nil
}
