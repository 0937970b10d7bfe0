package core

import (
	"errors"
	"fmt"

	"anytime/internal/graph"
)

// ErrNotConverged reports a query that needs exact distances on an engine
// that is not converged: the recombination is not at a fixpoint, or
// dynamic events are still queued (see Engine.Converged).
var ErrNotConverged = errors.New("core: engine not converged")

// Path returns a shortest path from u to t, both endpoints included, read
// off the converged distances by walking tight edges: from cur it steps to
// the lowest-id neighbour x with w(cur,x) + D[x][t] == D[cur][t]. Such a
// neighbour exists on every exact distance matrix, and weights are
// positive, so each step lowers the distance left and the walk ends at t.
// D[x][t] is read as D[t][x] (the graph is undirected), so the walk uses t's
// row only. Before convergence the distances are upper bounds and the walk
// may stall, so Path returns ErrNotConverged.
func (e *Engine) Path(u, t int32) ([]int32, error) {
	n := int32(e.g.NumVertices())
	if u < 0 || u >= n || t < 0 || t >= n {
		return nil, fmt.Errorf("core: path endpoints {%d,%d} out of range [0,%d)", u, t, n)
	}
	if !e.Alive(u) || !e.Alive(t) {
		return nil, fmt.Errorf("core: path endpoint deleted")
	}
	if !e.Converged() {
		return nil, fmt.Errorf("path %d -> %d: %w", u, t, ErrNotConverged)
	}
	dt := e.procs[e.part.Part[t]].table.Row(t).D
	if dt[u] == graph.InfDist {
		return nil, fmt.Errorf("core: no path %d -> %d", u, t)
	}
	path := []int32{u}
	for cur := u; cur != t; {
		next := int32(-1)
		for _, a := range e.g.Neighbors(int(cur)) {
			if (next < 0 || a.To < next) && graph.AddDist(dt[a.To], a.Weight) == dt[cur] {
				next = a.To
			}
		}
		if next < 0 {
			return nil, fmt.Errorf("core: no tight edge out of %d toward %d", cur, t)
		}
		path = append(path, next)
		cur = next
	}
	return path, nil
}
