// Faulttolerance demonstrates the checkpoint/restore extension (the
// paper's stated future work on fault tolerance in the cloud): a long
// analysis checkpoints at recombination-step boundaries; when the process
// "crashes" mid-run, a fresh engine restores from the last checkpoint and
// continues — landing on the bit-identical result, with all cost counters
// preserved. A step hook prints each recombination step as it happens.
//
// The second half turns on the seeded fault-injection layer inside the
// simulated cluster itself: messages drop, duplicate, delay, and corrupt
// on the wire, and a scheduled processor crash is recovered from its
// periodic in-memory shard — yet recombination still converges to exactly
// the fault-free answer.
package main

import (
	"bytes"
	"fmt"
	"log"

	"anytime"
)

func main() {
	g, err := anytime.ScaleFreeGraph(800, 3, 99)
	if err != nil {
		log.Fatal(err)
	}

	opts := anytime.DefaultOptions()
	opts.P = 8
	opts.Seed = 99
	opts.Strategy = anytime.CutEdgePS

	fmt.Println("primary run with per-step checkpoints:")
	e, err := anytime.NewEngine(g, opts)
	if err != nil {
		log.Fatal(err)
	}
	e.SetStepHook(func(s anytime.StepStats) {
		fmt.Printf("  [step] %-3d %d boundary-DV messages, converged=%v, virtual %v",
			s.Step, s.BoundaryMessages, s.ConvergedAfter, s.Virtual.Round(1000000))
		if s.ChangeApplied != "" {
			fmt.Printf(", then applied %s", s.ChangeApplied)
		}
		fmt.Println()
	})
	batch, err := anytime.CommunityBatch(g, 80, 1.5, 7)
	if err != nil {
		log.Fatal(err)
	}
	if err := e.QueueBatch(batch); err != nil {
		log.Fatal(err)
	}

	var lastCheckpoint bytes.Buffer
	crashAfter := 2
	for i := 0; ; i++ {
		more := e.Step()
		lastCheckpoint.Reset()
		if err := e.WriteCheckpoint(&lastCheckpoint); err != nil {
			log.Fatal(err)
		}
		if i+1 == crashAfter {
			fmt.Printf("\n!! simulated crash after RC step %d (checkpoint: %d bytes)\n\n",
				e.StepsTaken(), lastCheckpoint.Len())
			break
		}
		if !more {
			break
		}
	}

	fmt.Println("recovery: restoring into a fresh engine and continuing:")
	r, err := anytime.RestoreEngine(&lastCheckpoint, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  restored at RC step %d with %d vertices\n", r.StepsTaken(), r.Graph().NumVertices())
	r.Run()
	got := r.Snapshot()

	// Reference: the same computation without the crash.
	ref, err := anytime.NewEngine(g, anytime.Options{
		P: 8, Seed: 99, Strategy: anytime.CutEdgePS,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := ref.QueueBatch(batch); err != nil {
		log.Fatal(err)
	}
	ref.Run()
	want := ref.Snapshot()

	for v := range want.Closeness {
		if got.Closeness[v] != want.Closeness[v] {
			log.Fatalf("recovered run diverged at vertex %d", v)
		}
	}
	fmt.Printf("  recovered run converged at RC step %d — identical to the uninterrupted run\n", r.StepsTaken())
	fmt.Printf("  accumulated metrics survived: %d messages, %v virtual time\n",
		r.Metrics().Comm.Messages, r.Metrics().VirtualTime.Round(1000000))

	chaos(g, batch, want)
}

// chaos reruns the same batch on a deliberately hostile simulated cluster
// — lossy links plus a scheduled processor crash recovered in-engine from
// its shard — and checks the answer against the fault-free reference.
func chaos(g *anytime.Graph, batch *anytime.Batch, want anytime.Snapshot) {
	fmt.Println("\nchaos run: lossy links + a mid-recombination processor crash:")
	opts := anytime.DefaultOptions()
	opts.P = 8
	opts.Seed = 99
	opts.Strategy = anytime.CutEdgePS
	opts.Faults = &anytime.FaultPlan{
		Seed:          2026,
		DropRate:      0.05,
		DuplicateRate: 0.02,
		DelayRate:     0.05,
		CorruptRate:   0.02,
		Crashes:       []anytime.FaultCrash{{Proc: 3, Step: 4, DownFor: 2}},
	}
	c, err := anytime.NewEngine(g, opts)
	if err != nil {
		log.Fatal(err)
	}
	var crashes, rejoins int
	c.SetStepHook(func(s anytime.StepStats) {
		m := c.Metrics()
		if m.Crashes > crashes {
			fmt.Printf("  [step] %-3d processor crash, restarted from its shard\n", s.Step)
		}
		if m.Recoveries > rejoins {
			fmt.Printf("  [step] %-3d processor rejoined, boundary re-ship scheduled\n", s.Step)
		}
		crashes, rejoins = m.Crashes, m.Recoveries
	})
	if err := c.QueueBatch(batch); err != nil {
		log.Fatal(err)
	}
	c.Run()

	got := c.Snapshot()
	for v := range want.Closeness {
		if got.Closeness[v] != want.Closeness[v] {
			log.Fatalf("chaos run diverged at vertex %d", v)
		}
	}
	m := c.Metrics()
	fmt.Printf("  network: %d dropped, %d duplicated, %d delayed, %d corrupted, %d resends\n",
		m.Comm.Dropped, m.Comm.Duplicated, m.Comm.Delayed, m.Comm.Corrupted, m.Comm.Resends)
	fmt.Printf("  recovery: %d crash, %d rejoin, %d shards written (%d bytes)\n",
		m.Crashes, m.Recoveries, m.ShardsWritten, m.ShardBytes)
	fmt.Printf("  chaos run converged at RC step %d — identical to the fault-free run\n", c.StepsTaken())
}
