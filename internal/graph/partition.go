package graph

import "fmt"

// Partition maps every vertex to a part (processor) in [0, K).
type Partition struct {
	Part []int32 // Part[v] = part of vertex v
	K    int     // number of parts
}

// NewPartition returns a partition of n vertices into k parts, all initially
// part 0.
func NewPartition(n, k int) *Partition {
	return &Partition{Part: make([]int32, n), K: k}
}

// Validate checks that all assignments are in range and the vertex count
// matches the graph.
func (p *Partition) Validate(g *Graph) error {
	if len(p.Part) != g.NumVertices() {
		return fmt.Errorf("partition: %d assignments for %d vertices", len(p.Part), g.NumVertices())
	}
	for v, pt := range p.Part {
		if int(pt) < 0 || int(pt) >= p.K {
			return fmt.Errorf("partition: vertex %d assigned to out-of-range part %d", v, pt)
		}
	}
	return nil
}

// Sizes returns the number of vertices in each part.
func (p *Partition) Sizes() []int {
	s := make([]int, p.K)
	for _, pt := range p.Part {
		s[pt]++
	}
	return s
}

// Extend appends assignments for newly added vertices.
func (p *Partition) Extend(parts []int32) {
	p.Part = append(p.Part, parts...)
}

// Clone returns a deep copy.
func (p *Partition) Clone() *Partition {
	return &Partition{Part: append([]int32(nil), p.Part...), K: p.K}
}

// EdgeCut returns the number of undirected edges whose endpoints are in
// different parts (total cut edges over the whole graph).
func EdgeCut(g *Graph, p *Partition) int {
	cut := 0
	g.ForEachEdge(func(u, v int, _ Weight) {
		if p.Part[u] != p.Part[v] {
			cut++
		}
	})
	return cut
}

// CutSizes returns, per part, the number of cut edges incident to that part.
// (A single cut edge contributes to two parts; this is the paper's
// "cut-size of a sub-graph".)
func CutSizes(g *Graph, p *Partition) []int {
	cs := make([]int, p.K)
	g.ForEachEdge(func(u, v int, _ Weight) {
		if pu, pv := p.Part[u], p.Part[v]; pu != pv {
			cs[pu]++
			cs[pv]++
		}
	})
	return cs
}

// Imbalance returns max(part size) * K / N, the standard load imbalance
// factor (1.0 = perfectly balanced). Returns 0 for an empty graph.
func Imbalance(g *Graph, p *Partition) float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	max := 0
	for _, s := range p.Sizes() {
		if s > max {
			max = s
		}
	}
	return float64(max) * float64(p.K) / float64(n)
}
