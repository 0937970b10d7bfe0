// Package core implements the paper's primary contribution: the anytime
// anywhere closeness-centrality engine for large dynamic graphs with
// efficient vertex additions.
//
// The engine runs the three phases of the anytime-anywhere methodology:
//
//   - Domain Decomposition (DD): a cut-minimizing k-way partition assigns
//     each vertex to one of P simulated processors.
//   - Initial Approximation (IA): each processor computes all-pairs
//     shortest paths over its local sub-graph (local vertices plus external
//     boundary vertices) with multithreaded Dijkstra.
//   - Recombination (RC): iterative steps in which processors exchange the
//     distance vectors (DVs) of their updated boundary vertices over a
//     personalized all-to-all schedule, relax local DVs against them
//     (distance-vector-routing style), optionally run a local
//     Floyd–Warshall-style refinement, and finally incorporate queued
//     dynamic changes — until no processor has updates left.
//
// Dynamic vertex additions are absorbed with one of three strategies:
// RoundRobin-PS, CutEdge-PS, or Repartition-S; a baseline-restart
// comparator recomputes from scratch on every change.
package core

import (
	"fmt"

	"anytime/internal/cluster"
	"anytime/internal/fault"
	"anytime/internal/logp"
	"anytime/internal/obs"
	"anytime/internal/partition"
)

// Strategy selects how dynamic vertex additions are assigned to
// processors.
type Strategy int

const (
	// RoundRobinPS distributes new vertices over processors in a circular
	// fashion: minimal overhead, ignores relationships among new vertices.
	RoundRobinPS Strategy = iota
	// CutEdgePS treats the batch of new vertices and the edges among them
	// as an independent graph, partitions it with a serial cut-optimizing
	// partitioner, and maps the parts onto processors to minimize the new
	// cut edges created.
	CutEdgePS
	// RepartitionS repartitions the entire grown graph, migrating existing
	// partial results to their new owners instead of recomputing them, and
	// lets subsequent RC steps absorb the new vertices.
	RepartitionS
	// AutoPS operationalizes the paper's conclusion that no single
	// strategy wins everywhere: batches below autoThreshold (as a fraction
	// of the current graph) use CutEdge-PS, larger ones Repartition-S.
	AutoPS
)

const (
	// TileSize is the pivot-tile edge of the blocked Floyd–Warshall local
	// refinement: pivots are processed in tiles of this many consecutive
	// arena rows, with one worker barrier per tile round instead of per
	// pivot, and the external-relax pass walks received deltas in chunks
	// of the same size. Converged results are identical for every tile
	// size; 32 keeps a tile's pivot rows L1/L2-resident for the graph sizes
	// the benchmarks exercise. The Engine and rank.Runner both use it.
	TileSize = 32
	// MaxRCSteps bounds Engine.Run and rank.Runner.Run (a safety net).
	MaxRCSteps = 10_000
	// ShardEvery is the recovery-shard cadence in RC steps when
	// Options.Faults is set: each processor serializes its DV table every
	// ShardEvery steps, and a crashed processor restarts from its last
	// shard.
	ShardEvery = 4
	// autoThreshold is the batch-size fraction (of the current vertex
	// count) at which AutoPS switches from CutEdge-PS to Repartition-S,
	// the measured crossover region (see EXPERIMENTS.md).
	autoThreshold = 0.05
)

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case RoundRobinPS:
		return "RoundRobin-PS"
	case CutEdgePS:
		return "CutEdge-PS"
	case RepartitionS:
		return "Repartition-S"
	case AutoPS:
		return "Auto-PS"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures an Engine.
type Options struct {
	// P is the number of simulated processors (default 8).
	P int
	// Partitioner performs the DD phase and Repartition-S (default
	// multilevel k-way, the ParMETIS stand-in). CutEdge-PS partitions each
	// batch with multilevel k-way seeded Seed+1 (the serial-METIS
	// stand-in).
	Partitioner partition.Partitioner
	// Strategy selects the vertex-addition processor-assignment strategy
	// (default RoundRobinPS).
	Strategy Strategy
	// Workers is the number of worker goroutines per processor — the
	// paper's per-node (OpenMP-style) multithreading layered under the
	// P-way processor parallelism. It drives the IA-phase Dijkstra pool
	// and the RC-phase relax/refine pool, and divides the per-step
	// wall-clock charge of both phases (default 2).
	Workers int
	// NoLocalRefine disables the Floyd–Warshall-style local refinement
	// recombination strategy (ablation; the refinement is on by default).
	NoLocalRefine bool
	// ShipAllBoundary ships every boundary DV every step instead of only
	// the ones updated since the previous RC step (ablation; dirty-only
	// shipping is the default).
	ShipAllBoundary bool
	// Model holds the LogP parameters of the simulated cluster. Model.P is
	// overridden by P. Zero value = logp.GigabitCluster.
	Model logp.Model
	// MaxMsgBytes bounds a single wire message (the paper's m); larger
	// payloads are accounted as multiple messages. 0 = 64 KiB.
	MaxMsgBytes int
	// ParallelComm charges the all-to-all as P-1 rounds of concurrent
	// disjoint pairs instead of the paper's one-message-at-a-time
	// flood-avoiding schedule (ablation; serialized is the default).
	ParallelComm bool
	// NaiveBatchMapping makes CutEdge-PS map batch part j to processor j
	// instead of the greedy affinity matching (ablation).
	NaiveBatchMapping bool
	// FullRepartition makes Repartition-S partition the grown graph from
	// scratch (with part labels matched to the old assignment by overlap)
	// instead of the default adaptive refinement seeded from the old
	// assignment. From-scratch repartitioning migrates far more rows
	// (ablation).
	FullRepartition bool
	// Faults, when set, installs a deterministic fault-injection plan:
	// seeded message chaos on the boundary-DV data plane and scheduled
	// processor crashes with shard-based recovery (see internal/fault).
	// It also enables per-processor recovery shards every ShardEvery
	// steps. nil = perfect network, no shards — the pre-fault-layer path.
	Faults *fault.Plan
	// Obs, when set, records structured phase-level spans (DD, per-
	// processor IA/ship/relax, refine tile rounds, checkpoint and shard
	// writes, crashes, rejoins, fault retries) into the tracer's ring
	// buffer, carrying both wall time and the LogP virtual clock. nil
	// disables tracing at branch-only cost (see internal/obs).
	Obs *obs.Tracer
	// Seed drives every randomized component (default 1).
	Seed int64

	// Test-only variation, never set outside this package: tileSize
	// overrides TileSize (the tile-invariance matrix), shardEvery
	// overrides ShardEvery (denser shards for the crash tests), and
	// noFrontierMask restores the full-row sweeps on every pass (the
	// masked ≡ unmasked matrix; results are bit-identical either way).
	tileSize       int
	shardEvery     int
	noFrontierMask bool
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.P == 0 {
		o.P = 8
	}
	if o.Partitioner == nil {
		o.Partitioner = partition.Multilevel{Seed: o.Seed}
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.tileSize <= 0 {
		o.tileSize = TileSize
	}
	if o.Model.P == 0 && o.Model.L == 0 && o.Model.O == 0 && o.Model.G == 0 {
		o.Model = logp.GigabitCluster(o.P)
	}
	o.Model.P = o.P
	if o.MaxMsgBytes == 0 {
		o.MaxMsgBytes = 64 << 10
	}
	if o.shardEvery <= 0 {
		o.shardEvery = ShardEvery
	}
	return o
}

// NewOptions returns Options with all defaults applied, as a starting
// point for callers who want to tweak individual knobs.
func NewOptions() Options {
	return Options{Seed: 1}.withDefaults()
}

func (o Options) clusterConfig() cluster.Config {
	return cluster.Config{
		Model:       o.Model,
		MaxMsgBytes: o.MaxMsgBytes,
		Serialized:  !o.ParallelComm,
		Obs:         o.Obs,
	}
}
