// Quickstart: compute closeness centrality on a scale-free graph with the
// anytime-anywhere engine, interrupt it mid-run for an anytime estimate,
// add vertices mid-analysis, and read back the exact result.
package main

import (
	"fmt"
	"log"

	"anytime"
)

func main() {
	// 1. A connected scale-free graph — the paper's input regime.
	g, err := anytime.ScaleFreeGraph(1000, 3, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	// 2. Engine over 8 simulated processors (DD + IA run here).
	opts := anytime.DefaultOptions()
	opts.P = 8
	opts.Seed = 42
	e, err := anytime.NewEngine(g, opts)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Anytime: take a snapshot after a single recombination step. The
	// estimates are usable immediately and only improve afterwards.
	e.Step()
	early := e.Snapshot()
	fmt.Printf("after RC step 1 (converged=%v): vertex 0 closeness >= %.6g\n",
		early.Converged, early.Closeness[0])

	// 4. Anywhere: a batch of 50 new community-structured vertices arrives
	// while the analysis is still running.
	batch, err := anytime.CommunityBatch(g, 50, 1.5, 7)
	if err != nil {
		log.Fatal(err)
	}
	if err := e.QueueBatch(batch); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("queued %d new vertices with %d edges\n", batch.NumVertices, batch.NumEdges())

	// 5. Run to convergence: the result now covers the grown graph and is
	// exact (equal to recomputing from scratch), at a fraction of the cost.
	e.Run()
	snap := e.Snapshot()
	fmt.Printf("converged after %d RC steps on %d vertices\n",
		e.StepsTaken(), e.Graph().NumVertices())

	fmt.Println("top 5 by closeness:")
	for rank, v := range snap.TopK(5) {
		fmt.Printf("  %d. vertex %-6d C=%.6g\n", rank+1, v, snap.Closeness[v])
	}

	// 6. The converged distances are exact, so a shortest path can be read
	// off them by walking tight edges across the simulated processors.
	top := snap.TopK(1)[0]
	newest := int32(e.Graph().NumVertices() - 1) // a dynamically added vertex
	path, err := e.Path(int32(top), newest)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shortest path from top vertex %d to new vertex %d: %v\n", top, newest, path)

	m := e.Metrics()
	fmt.Printf("cost: %v simulated cluster time, %d messages, %d bytes shipped\n",
		m.VirtualTime.Round(1000000), m.Comm.Messages, m.Comm.Bytes)
}
