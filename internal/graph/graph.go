// Package graph provides the weighted undirected graph representation used
// throughout the anytime-anywhere centrality engine: growable adjacency
// lists, sub-graph extraction with external boundary vertices, compressed
// (CSR) views for partitioning, and Pajek/edge-list I/O.
//
// Vertices are dense integer IDs in [0, N). Edges carry positive integer
// weights (shortest-path lengths are sums of weights). The graph is
// undirected: AddEdge(u, v, w) installs the arc in both adjacency lists.
package graph

import (
	"fmt"
)

// Weight is the type of edge weights. Weights must be positive; shortest
// path computations rely on non-negative edge costs.
type Weight = int32

// Arc is one directed half of an undirected edge: the target vertex and the
// edge weight.
type Arc struct {
	To     int32
	Weight Weight
}

// Graph is a weighted undirected graph over dense vertex IDs [0, N).
// The zero value is an empty graph ready for use.
//
// Graph is not safe for concurrent mutation; concurrent readers are safe
// once mutation has stopped.
type Graph struct {
	adj   [][]Arc
	edges int // number of undirected edges
}

// New returns an empty graph with n vertices and no edges.
func New(n int) *Graph {
	return &Graph{adj: make([][]Arc, n)}
}

// NumVertices returns the number of vertices N.
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// AddVertex appends a new isolated vertex and returns its ID.
func (g *Graph) AddVertex() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddVertices appends k new isolated vertices and returns the ID of the
// first one.
func (g *Graph) AddVertices(k int) int {
	first := len(g.adj)
	g.adj = append(g.adj, make([][]Arc, k)...)
	return first
}

// HasEdge reports whether an undirected edge {u, v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return false
	}
	// Probe the shorter adjacency list.
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, a := range g.adj[u] {
		if int(a.To) == v {
			return true
		}
	}
	return false
}

// EdgeWeight returns the weight of edge {u, v} and whether it exists.
func (g *Graph) EdgeWeight(u, v int) (Weight, bool) {
	if u < 0 || u >= len(g.adj) {
		return 0, false
	}
	for _, a := range g.adj[u] {
		if int(a.To) == v {
			return a.Weight, true
		}
	}
	return 0, false
}

// AddEdge inserts the undirected edge {u, v} with weight w. It returns an
// error if the endpoints are out of range, equal (self-loop), the weight is
// not positive, or the edge already exists.
func (g *Graph) AddEdge(u, v int, w Weight) error {
	n := len(g.adj)
	switch {
	case u < 0 || u >= n || v < 0 || v >= n:
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, n)
	case u == v:
		return fmt.Errorf("graph: self-loop on vertex %d", u)
	case w <= 0:
		return fmt.Errorf("graph: non-positive weight %d on edge {%d,%d}", w, u, v)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	g.addEdgeUnchecked(u, v, w)
	return nil
}

// AddOrLowerEdge inserts edge {u, v, w}, or lowers the weight of an
// existing heavier one, and reports whether the graph changed. It is the
// one duplicate-edge rule: re-adding an edge keeps the lighter weight.
func (g *Graph) AddOrLowerEdge(u, v int, w Weight) (bool, error) {
	if old, ok := g.EdgeWeight(u, v); ok {
		if w >= old {
			return false, nil
		}
		if err := g.RemoveEdge(u, v); err != nil {
			return false, err
		}
	}
	if err := g.AddEdge(u, v, w); err != nil {
		return false, err
	}
	return true, nil
}

// MustAddEdge is AddEdge that panics on error; for tests and generators
// that construct edges known to be valid.
func (g *Graph) MustAddEdge(u, v int, w Weight) {
	if err := g.AddEdge(u, v, w); err != nil {
		panic(err)
	}
}

// addEdgeUnchecked installs {u,v} without validation.
func (g *Graph) addEdgeUnchecked(u, v int, w Weight) {
	g.adj[u] = append(g.adj[u], Arc{To: int32(v), Weight: w})
	g.adj[v] = append(g.adj[v], Arc{To: int32(u), Weight: w})
	g.edges++
}

// RemoveEdge deletes the undirected edge {u, v}. It returns an error if the
// edge does not exist.
func (g *Graph) RemoveEdge(u, v int) error {
	if !g.removeArc(u, v) || !g.removeArc(v, u) {
		return fmt.Errorf("graph: edge {%d,%d} not present", u, v)
	}
	g.edges--
	return nil
}

func (g *Graph) removeArc(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	l := g.adj[u]
	for i, a := range l {
		if int(a.To) == v {
			l[i] = l[len(l)-1]
			g.adj[u] = l[:len(l)-1]
			return true
		}
	}
	return false
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Neighbors returns the adjacency list of u. The returned slice is owned by
// the graph and must not be modified; it is invalidated by mutation of u's
// edges.
func (g *Graph) Neighbors(u int) []Arc { return g.adj[u] }

// ForEachEdge calls fn(u, v, w) once per undirected edge with u < v.
func (g *Graph) ForEachEdge(fn func(u, v int, w Weight)) {
	for u, l := range g.adj {
		for _, a := range l {
			if int(a.To) > u {
				fn(u, int(a.To), a.Weight)
			}
		}
	}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]Arc, len(g.adj)), edges: g.edges}
	for i, l := range g.adj {
		if len(l) > 0 {
			c.adj[i] = append([]Arc(nil), l...)
		}
	}
	return c
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() int64 {
	var s int64
	g.ForEachEdge(func(_, _ int, w Weight) { s += int64(w) })
	return s
}

// MaxDegree returns the maximum vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	m := 0
	for _, l := range g.adj {
		if len(l) > m {
			m = len(l)
		}
	}
	return m
}

// Validate checks internal consistency: symmetric adjacency, no self loops,
// no duplicates, positive weights, and an edge count matching the lists.
func (g *Graph) Validate() error {
	count := 0
	for u, l := range g.adj {
		seen := make(map[int32]bool, len(l))
		for _, a := range l {
			if int(a.To) < 0 || int(a.To) >= len(g.adj) {
				return fmt.Errorf("graph: vertex %d has arc to out-of-range %d", u, a.To)
			}
			if int(a.To) == u {
				return fmt.Errorf("graph: self-loop on %d", u)
			}
			if seen[a.To] {
				return fmt.Errorf("graph: duplicate arc %d->%d", u, a.To)
			}
			seen[a.To] = true
			if a.Weight <= 0 {
				return fmt.Errorf("graph: non-positive weight on %d->%d", u, a.To)
			}
			w, ok := g.EdgeWeight(int(a.To), u)
			if !ok || w != a.Weight {
				return fmt.Errorf("graph: asymmetric edge %d<->%d", u, a.To)
			}
			count++
		}
	}
	if count != 2*g.edges {
		return fmt.Errorf("graph: edge count %d inconsistent with %d arcs", g.edges, count)
	}
	return nil
}
