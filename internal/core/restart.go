package core

import (
	"anytime/internal/change"
	"anytime/internal/graph"
)

// Restart is the paper's baseline comparator: a static analysis that has no
// anytime or anywhere property, so every dynamic change forces a full
// recomputation (DD + IA + RC from scratch on the updated graph). Its
// metrics accumulate across restarts, which is what Fig. 4 and Fig. 8 plot
// against the anytime-anywhere engine.
type Restart struct {
	opts    Options
	g       *graph.Graph
	engine  *Engine
	log     *EventLog // new-vertex ids and the stream map
	metrics Metrics
}

// NewRestart builds the baseline over a snapshot of g and runs the first
// full computation.
func NewRestart(g *graph.Graph, opts Options) (*Restart, error) {
	r := &Restart{opts: opts.withDefaults(), g: g.Clone()}
	r.log = NewEventLog(r.opts.P)
	if err := r.recompute(); err != nil {
		return nil, err
	}
	return r, nil
}

// recompute runs a complete static analysis on the current graph.
func (r *Restart) recompute() error {
	e, err := New(r.g, r.opts)
	if err != nil {
		return err
	}
	e.Run()
	r.engine = e
	r.metrics.add(e.Metrics())
	return nil
}

// ApplyBatch incorporates a vertex-addition batch by mutating the graph
// and restarting the analysis from scratch.
func (r *Restart) ApplyBatch(b *change.VertexBatch) error {
	if _, err := r.log.apply(r.g, nil, change.Event{Batch: b}, nil, nil); err != nil {
		return err
	}
	return r.recompute()
}

// Snapshot returns the result of the most recent full computation.
func (r *Restart) Snapshot() Snapshot { return r.engine.Snapshot() }

// Distances returns the distance matrix of the most recent computation.
func (r *Restart) Distances() [][]graph.Dist { return r.engine.Distances() }

// Metrics returns the counters accumulated over every restart.
func (r *Restart) Metrics() Metrics { return r.metrics }

// Graph returns the baseline's current graph (mutations applied).
func (r *Restart) Graph() *graph.Graph { return r.g }
