package core

import (
	"time"

	"anytime/internal/cluster"
)

// Metrics aggregates the engine's cost counters. VirtualTime is the LogP
// simulated-cluster time (the quantity the paper plots in minutes);
// WallTime is the real elapsed time of the in-process simulation.
type Metrics struct {
	RCSteps     int           // recombination steps performed
	VirtualTime time.Duration // LogP virtual elapsed time
	WallTime    time.Duration // real elapsed time inside the engine

	Comm cluster.Stats // message/byte counters

	// Work counters, in abstract relaxation/heap operations, per phase.
	DDOps     int64 // domain decomposition (partitioning) work
	IAOps     int64 // initial approximation Dijkstra work
	RCOps     int64 // recombination relax/refine work (the charge)
	ChangeOps int64 // dynamic-change incorporation work

	// RCExecOps is the part of RCOps the relax kernels actually ran: an
	// exact-state relax phase (DESIGN.md, "Exact-state steps") charges its
	// sweeps without running them. It is not checkpointed, so it counts
	// from the engine's construction or restore.
	RCExecOps int64

	// Dynamic-change accounting.
	VerticesAdded int   // vertices added dynamically
	EdgesAdded    int   // edges added dynamically
	NewCutEdges   int   // net cut edges created by dynamic changes
	Repartitions  int   // Repartition-S invocations
	RowsMigrated  int   // DV rows relocated by repartitioning
	ResizeCopies  int64 // element copies from DV column extension

	// Fault-tolerance accounting (all zero without Options.Faults).
	Crashes       int   // scheduled processor crashes applied
	Recoveries    int   // rejoin protocols completed
	ShardsWritten int   // recovery shards serialized
	ShardBytes    int64 // total bytes of recovery shards written

	// Per-processor vertex counts after the most recent change, for the
	// load-balance analyses.
	ProcVertices []int
}

// add merges o's counters into m (used by the restart comparator to
// accumulate over repeated runs).
func (m *Metrics) add(o Metrics) {
	m.RCSteps += o.RCSteps
	m.VirtualTime += o.VirtualTime
	m.WallTime += o.WallTime
	m.Comm.Messages += o.Comm.Messages
	m.Comm.Chunks += o.Comm.Chunks
	m.Comm.Bytes += o.Comm.Bytes
	m.Comm.Broadcasts += o.Comm.Broadcasts
	m.Comm.Barriers += o.Comm.Barriers
	m.Comm.Steps += o.Comm.Steps
	m.DDOps += o.DDOps
	m.IAOps += o.IAOps
	m.RCOps += o.RCOps
	m.RCExecOps += o.RCExecOps
	m.ChangeOps += o.ChangeOps
	m.VerticesAdded += o.VerticesAdded
	m.EdgesAdded += o.EdgesAdded
	m.NewCutEdges += o.NewCutEdges
	m.Repartitions += o.Repartitions
	m.RowsMigrated += o.RowsMigrated
	m.ResizeCopies += o.ResizeCopies
	m.Crashes += o.Crashes
	m.Recoveries += o.Recoveries
	m.ShardsWritten += o.ShardsWritten
	m.ShardBytes += o.ShardBytes
	m.ProcVertices = o.ProcVertices
}
