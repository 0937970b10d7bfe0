// Package anytime is the public API of the anytime-anywhere dynamic-graph
// centrality library, a from-scratch reproduction of "Efficient Anytime
// Anywhere Algorithms for Vertex Additions in Large and Dynamic Graphs"
// (Santos, Korah, Murugappan, Subramanian; IPDPS Workshops 2017).
//
// The library computes closeness centrality on large graphs over a
// simulated distributed machine of P processors and absorbs dynamic vertex
// additions mid-computation without restarting:
//
//	g, _ := anytime.ScaleFreeGraph(2000, 3, 1)
//	e, _ := anytime.NewEngine(g, anytime.DefaultOptions())
//	e.Run()                         // converge (anytime: call Step instead)
//	batch, _ := anytime.CommunityBatch(g, 100, 1.5, 1)
//	e.QueueBatch(batch)             // anywhere: absorb new vertices
//	e.Run()
//	snap := e.Snapshot()            // exact closeness for every vertex
//
// The three processor-assignment strategies of the paper are selected via
// Options.Strategy: RoundRobinPS, CutEdgePS, and RepartitionS; the
// BaselineRestart comparator recomputes from scratch on every change.
package anytime

import (
	"io"

	"anytime/internal/centrality"
	"anytime/internal/change"
	"anytime/internal/community"
	"anytime/internal/core"
	"anytime/internal/fault"
	"anytime/internal/gen"
	"anytime/internal/graph"
	"anytime/internal/logp"
	"anytime/internal/obs"
	"anytime/internal/partition"
	"anytime/internal/serve"
	"anytime/internal/stream"
)

// Graph is a weighted undirected graph over dense vertex IDs [0, N).
type Graph = graph.Graph

// Weight is a positive edge weight.
type Weight = graph.Weight

// Dist is a shortest-path distance; InfDist marks "no known path".
type Dist = graph.Dist

// InfDist is the unreachable-distance sentinel.
const InfDist = graph.InfDist

// NewGraph returns an empty graph with n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// Engine is the anytime-anywhere closeness-centrality engine (see
// NewEngine).
type Engine = core.Engine

// Options configures an Engine; see DefaultOptions for the paper-faithful
// defaults.
type Options = core.Options

// Strategy selects the dynamic vertex-addition processor-assignment
// strategy.
type Strategy = core.Strategy

// The paper's three vertex-addition strategies.
const (
	// RoundRobinPS assigns new vertices to processors in circular order.
	RoundRobinPS = core.RoundRobinPS
	// CutEdgePS partitions the batch graph to minimize new cut edges.
	CutEdgePS = core.CutEdgePS
	// RepartitionS repartitions the whole grown graph, reusing partial
	// results by migrating them.
	RepartitionS = core.RepartitionS
	// AutoPS switches between CutEdgePS and RepartitionS by batch size
	// (at 5 % of the current vertex count).
	AutoPS = core.AutoPS
)

// Snapshot is an anytime view of the centrality computation.
type Snapshot = core.Snapshot

// Metrics aggregates cost counters (RC steps, LogP virtual time, messages,
// new cut edges, ...).
type Metrics = core.Metrics

// Batch describes one dynamic vertex-addition event.
type Batch = change.VertexBatch

// EdgeAdd, EdgeDel, EdgeWeightChange and VertexDel are the other dynamic
// change kinds.
type (
	EdgeAdd          = change.EdgeAdd
	EdgeDel          = change.EdgeDel
	EdgeWeightChange = change.EdgeWeight
	VertexDel        = change.VertexDel
)

// BaselineRestart is the paper's comparator: full recomputation on every
// dynamic change.
type BaselineRestart = core.Restart

// FaultPlan is a seeded, reproducible fault-injection schedule for the
// simulated cluster: message drop/duplicate/delay/corrupt rates on the
// boundary-DV plane plus scheduled processor crashes. Set Options.Faults
// to run the engine under it; the engine still reconverges to the exact
// sequential oracle (see DESIGN.md §9).
type FaultPlan = fault.Plan

// FaultCrash schedules one processor crash inside a FaultPlan: the
// processor loses everything since its last recovery shard and rejoins
// after DownFor steps.
type FaultCrash = fault.Crash

// Partitioner splits a graph into k balanced parts (Domain Decomposition).
type Partitioner = partition.Partitioner

// LogPModel holds the simulated cluster's LogP parameters.
type LogPModel = logp.Model

// DefaultOptions returns the paper-faithful engine configuration: 8
// processors, multilevel k-way DD, dirty-only boundary shipping, local
// refinement on, serialized flood-avoiding all-to-all.
func DefaultOptions() Options { return core.NewOptions() }

// NewEngine builds an engine over a snapshot of g: runs Domain
// Decomposition and Initial Approximation. Call Run (or Step, for anytime
// interruption) afterwards.
func NewEngine(g *Graph, opts Options) (*Engine, error) { return core.New(g, opts) }

// NewBaselineRestart builds the restart comparator and runs the first full
// computation.
func NewBaselineRestart(g *Graph, opts Options) (*BaselineRestart, error) {
	return core.NewRestart(g, opts)
}

// MultilevelPartitioner returns the METIS-family multilevel k-way
// partitioner (the default for Domain Decomposition and Repartition-S).
func MultilevelPartitioner(seed int64) Partitioner { return partition.Multilevel{Seed: seed} }

// RoundRobinPartitioner returns the edge-oblivious round-robin partitioner.
func RoundRobinPartitioner() Partitioner { return partition.RoundRobin{} }

// GreedyPartitioner returns the BFS greedy-growing partitioner.
func GreedyPartitioner(seed int64) Partitioner { return partition.Greedy{Seed: seed} }

// GigabitClusterModel returns LogP parameters resembling the paper's
// testbed (1 Gb/s Ethernet cluster) for p processors.
func GigabitClusterModel(p int) LogPModel { return logp.GigabitCluster(p) }

// ScaleFreeGraph generates a connected Barabási–Albert scale-free graph
// with n vertices, m attachment edges per vertex, and unit weights — the
// regime of the paper's Pajek-generated inputs.
func ScaleFreeGraph(n, m int, seed int64) (*Graph, error) {
	g, err := gen.BarabasiAlbert(n, m, gen.Weights{}, seed)
	if err != nil {
		return nil, err
	}
	gen.Connectify(g, seed)
	return g, nil
}

// WeightedScaleFreeGraph is ScaleFreeGraph with integer edge weights drawn
// uniformly from [minW, maxW].
func WeightedScaleFreeGraph(n, m int, minW, maxW Weight, seed int64) (*Graph, error) {
	g, err := gen.BarabasiAlbert(n, m, gen.Weights{Min: minW, Max: maxW}, seed)
	if err != nil {
		return nil, err
	}
	gen.Connectify(g, seed)
	return g, nil
}

// CommunityGraph generates a planted-partition graph of n vertices in c
// communities (intra/inter edge probabilities pin/pout), returning the
// ground-truth community labels.
func CommunityGraph(n, c int, pin, pout float64, seed int64) (*Graph, []int32, error) {
	return gen.PlantedPartition(n, c, pin, pout, gen.Weights{}, seed)
}

// PreferentialBatch generates a batch of k new vertices attaching to g
// preferentially by degree (organic growth; the Fig. 4/8 workload). Each
// new vertex receives mExt edges into the existing graph and up to mInt
// edges to earlier batch vertices.
func PreferentialBatch(g *Graph, k, mExt, mInt int, seed int64) (*Batch, error) {
	return gen.PreferentialBatch(g, k, mExt, mInt, gen.Weights{}, seed)
}

// CommunityBatch generates a batch of k new vertices with community
// structure, extracted from a scale-free reservoir via Louvain — the
// paper's Fig. 5-7 workload. extAvg is the average number of anchor edges
// per new vertex into the existing graph.
func CommunityBatch(g *Graph, k int, extAvg float64, seed int64) (*Batch, error) {
	return gen.CommunityBatch(g, k, extAvg, gen.Weights{}, seed)
}

// SplitBatch divides a batch into `steps` sub-batches applied at
// consecutive RC steps (the incremental-additions scenario, Fig. 8).
func SplitBatch(b *Batch, steps int) []*Batch { return gen.SplitBatch(b, steps) }

// Closeness computes exact closeness centrality sequentially (the
// verification oracle; use the Engine for the parallel dynamic version).
func Closeness(g *Graph) []float64 { return centrality.Closeness(g) }

// Harmonic computes exact harmonic closeness sequentially.
func Harmonic(g *Graph) []float64 { return centrality.Harmonic(g) }

// TopK returns the indices of the k largest scores in descending order.
func TopK(scores []float64, k int) []int { return centrality.TopK(scores, k) }

// Communities runs Louvain community detection and returns the per-vertex
// labels, the community count, and the modularity.
func Communities(g *Graph, seed int64) ([]int32, int, float64) {
	res := community.Louvain(g, seed)
	return res.Label, res.K, res.Modularity
}

// EdgeCut returns the number of cut edges of a partition produced by a
// Partitioner.
func EdgeCut(g *Graph, p *graph.Partition) int { return graph.EdgeCut(g, p) }

// ReadPajek parses a Pajek .net file (the format of the paper's generator
// tooling).
func ReadPajek(r io.Reader) (*Graph, error) { return graph.ReadPajek(r) }

// WritePajek writes the graph in Pajek .net format.
func WritePajek(w io.Writer, g *Graph) error { return graph.WritePajek(w, g) }

// ReadEdgeList parses the plain "n m" + "u v w" edge-list format.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteEdgeList writes the plain edge-list format.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// WriteCheckpoint serializes an engine's complete state (graph, partition,
// distance vectors, counters) at an RC-step boundary — the fault-tolerance
// extension (the paper's stated future work). Restore with
// RestoreEngine.
func WriteCheckpoint(w io.Writer, e *Engine) error { return e.WriteCheckpoint(w) }

// RestoreEngine reconstructs an engine from a checkpoint written by
// WriteCheckpoint. opts must use the same P as the checkpointed engine.
func RestoreEngine(r io.Reader, opts Options) (*Engine, error) { return core.Restore(r, opts) }

// ReadMETIS parses the METIS/Chaco graph format used across the
// graph-partitioning ecosystem.
func ReadMETIS(r io.Reader) (*Graph, error) { return graph.ReadMETIS(r) }

// WriteMETIS writes the METIS graph format (with edge weights).
func WriteMETIS(w io.Writer, g *Graph) error { return graph.WriteMETIS(w, g) }

// SpanTracer is the structured phase-span tracer (see Options.Obs): a
// fixed-capacity ring of spans carrying both wall and LogP virtual clocks,
// exportable as JSONL or a Chrome trace via cmd/aatrace.
type SpanTracer = obs.Tracer

// Span is one recorded phase span.
type Span = obs.Span

// NewSpanTracer builds a span tracer; capacity <= 0 uses the default ring
// size (the tracer keeps the most recent spans once full).
func NewSpanTracer(capacity int) *SpanTracer { return obs.NewTracer(capacity) }

// MetricsRegistry renders counters/gauges/histograms in the Prometheus
// text exposition format (see Server.Registry and GET /metrics).
type MetricsRegistry = obs.Registry

// Stream is a replayable, timestamped dynamic-graph event stream.
type Stream = stream.Stream

// StreamEvent is one timestamped change in a Stream.
type StreamEvent = stream.Event

// StreamConfig parameterizes synthetic stream generation.
type StreamConfig = stream.GenConfig

// GenerateStream produces a synthetic growth-with-churn stream over base.
func GenerateStream(base *Graph, cfg StreamConfig) (*Stream, error) {
	return stream.Generate(base, cfg)
}

// ReadStream parses a stream from its text format; WriteStream writes it.
func ReadStream(r io.Reader) (*Stream, error) { return stream.Read(r) }

// WriteStream serializes a stream as text.
func WriteStream(w io.Writer, s *Stream) error { return stream.Write(w, s) }

// ReplayStream drives an engine from a stream in time windows of the given
// width (one recombination step per window), then converges it. Returns
// the number of windows replayed.
func ReplayStream(e *Engine, s *Stream, window int64) (int, error) {
	return stream.Replay(e, s, window)
}

// StepStats records what one recombination step did (see Engine.History).
type StepStats = core.StepStats

// Server is the live query-serving subsystem: it owns an Engine on a
// background driver goroutine, ingests dynamic events through a bounded
// admission queue, and publishes immutable versioned snapshots that any
// number of readers query without locking (see NewServer).
type Server = serve.Server

// ServeConfig tunes the serving subsystem (publish interval, admission
// queue capacity, backpressure wait, top-k index size, checkpoint path).
type ServeConfig = serve.Config

// ServeView is one published, immutable, versioned snapshot: centrality
// estimates plus serving metadata and a precomputed top-k index.
type ServeView = serve.View

// ServeCounters are the serving subsystem's counters, rendered on
// GET /metrics in the Prometheus text exposition format.
type ServeCounters = serve.Counters

// ServeClient is a minimal client for the serving HTTP API — the load
// generator's half of the pair (see cmd/aastream -mode replay -target).
type ServeClient = serve.Client

// ErrBackpressure is returned when the admission queue stays full for the
// configured wait: ingestion is outrunning recombination (HTTP: 429).
var ErrBackpressure = serve.ErrBackpressure

// ErrNotConverged is returned by Engine.Path while the engine has not
// converged (recombination not at a fixpoint, or events still queued):
// paths are read off exact distances only.
var ErrNotConverged = core.ErrNotConverged

// ErrServerClosed is returned by admission once a Server is closing
// (HTTP: 503).
var ErrServerClosed = serve.ErrClosed

// NewServer wraps an engine (freshly built or restored from a checkpoint)
// in the serving subsystem and starts the background driver. Ownership of
// the engine transfers to the Server: every RC step is driven by the
// server's goroutine, and after each step (or every ServeConfig.PublishEvery
// steps) an immutable versioned snapshot is published for lock-free
// readers. Serve HTTP with (&http.Server{Handler: s.Handler()}); stop with
// s.Close(), which drains admitted events, converges, and checkpoints.
func NewServer(e *Engine, cfg ServeConfig) (*Server, error) { return serve.New(e, cfg) }

// GeometricGraph generates a random geometric graph: n points in the unit
// square connected within the given radius — the sensor-network workload
// of the paper's introduction. Components are joined with unit-weight
// edges so closeness is defined for every vertex; pick the radius for the
// density you need.
func GeometricGraph(n int, radius float64, seed int64) (*Graph, error) {
	g, err := gen.RandomGeometric(n, radius, gen.Weights{}, seed)
	if err != nil {
		return nil, err
	}
	gen.Connectify(g, seed)
	return g, nil
}
