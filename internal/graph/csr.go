package graph

// CSR is a compressed sparse row (adjacency-array) snapshot of a Graph.
// It is immutable and cache-friendly; the multilevel partitioner and the
// Dijkstra kernels operate on CSR views.
type CSR struct {
	XAdj   []int32  // offsets, len N+1
	Adjncy []int32  // concatenated neighbor lists, len 2E
	AdjWgt []Weight // parallel edge weights, len 2E
	VWgt   []int32  // vertex weights (coarsening multiplicities), len N
}

// ToCSR converts g to CSR form with unit vertex weights.
func ToCSR(g *Graph) *CSR {
	n := g.NumVertices()
	c := &CSR{
		XAdj:   make([]int32, n+1),
		Adjncy: make([]int32, 0, 2*g.NumEdges()),
		AdjWgt: make([]Weight, 0, 2*g.NumEdges()),
		VWgt:   make([]int32, n),
	}
	for v := 0; v < n; v++ {
		c.VWgt[v] = 1
		for _, a := range g.Neighbors(v) {
			c.Adjncy = append(c.Adjncy, a.To)
			c.AdjWgt = append(c.AdjWgt, a.Weight)
		}
		c.XAdj[v+1] = int32(len(c.Adjncy))
	}
	return c
}

// NumVertices returns N.
func (c *CSR) NumVertices() int { return len(c.XAdj) - 1 }

// Degree returns the degree of v.
func (c *CSR) Degree(v int32) int32 { return c.XAdj[v+1] - c.XAdj[v] }

// Neighbors iterates over arcs of v, calling fn(to, weight).
func (c *CSR) Neighbors(v int32, fn func(to int32, w Weight)) {
	for i := c.XAdj[v]; i < c.XAdj[v+1]; i++ {
		fn(c.Adjncy[i], c.AdjWgt[i])
	}
}

// TotalVWgt returns the sum of vertex weights.
func (c *CSR) TotalVWgt() int64 {
	var s int64
	for _, w := range c.VWgt {
		s += int64(w)
	}
	return s
}
