package graph

import "math"

// GraphStats summarizes a graph's size and edge-weight profile.
type GraphStats struct {
	Vertices int
	Edges    int
	// MinWeight/MaxWeight span the edge weights (both 0 on an edgeless
	// graph).
	MinWeight Weight
	MaxWeight Weight
	// UnitWeights reports that every edge weighs exactly 1 (vacuously true
	// on an edgeless graph) — the condition under which Dijkstra
	// degenerates to BFS and the engine's IA phase drops the heap.
	UnitWeights bool
}

// Stats scans the graph once and returns its summary statistics.
func Stats(g *Graph) GraphStats {
	s := GraphStats{Vertices: g.NumVertices(), Edges: g.NumEdges(), UnitWeights: true}
	first := true
	g.ForEachEdge(func(u, v int, w Weight) {
		if first {
			s.MinWeight, s.MaxWeight = w, w
			first = false
		} else {
			if w < s.MinWeight {
				s.MinWeight = w
			}
			if w > s.MaxWeight {
				s.MaxWeight = w
			}
		}
		if w != 1 {
			s.UnitWeights = false
		}
	})
	return s
}

// MeanDegree returns the average vertex degree.
func MeanDegree(g *Graph) float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(n)
}

// PowerLawExponent estimates the exponent gamma of a power-law degree
// distribution P(d) ~ d^-gamma via the Hill maximum-likelihood estimator
// over degrees >= dmin. Used by tests to confirm scale-free generators.
func PowerLawExponent(g *Graph, dmin int) float64 {
	if dmin < 1 {
		dmin = 1
	}
	var sum float64
	var cnt int
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(v); d >= dmin {
			sum += math.Log(float64(d) / (float64(dmin) - 0.5))
			cnt++
		}
	}
	if cnt == 0 || sum == 0 {
		return 0
	}
	return 1 + float64(cnt)/sum
}

// ConnectedComponents labels vertices with component IDs (0-based, in order
// of discovery) and returns the labels plus the number of components.
func ConnectedComponents(g *Graph) ([]int32, int) {
	n := g.NumVertices()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var stack []int32
	next := int32(0)
	for s := 0; s < n; s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = next
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, a := range g.Neighbors(int(v)) {
				if comp[a.To] == -1 {
					comp[a.To] = next
					stack = append(stack, a.To)
				}
			}
		}
		next++
	}
	return comp, int(next)
}

// IsConnected reports whether the graph has exactly one connected component
// (the empty graph counts as connected).
func IsConnected(g *Graph) bool {
	if g.NumVertices() == 0 {
		return true
	}
	_, k := ConnectedComponents(g)
	return k == 1
}
