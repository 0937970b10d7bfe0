package core

import (
	"testing"

	"anytime/internal/change"
	"anytime/internal/gen"
)

// dynamicScenario drives an engine through the dynamic events the RC worker
// pool must survive: static convergence, a vertex batch, edge deletions
// (the IA-reset path), and an explicit rebalance (row migration).
func dynamicScenario(t *testing.T, workers int) *Engine {
	return dynamicScenarioTile(t, workers, 0) // 0 = default tile size
}

func dynamicScenarioTile(t *testing.T, workers, tile int) *Engine {
	return dynamicScenarioMask(t, workers, tile, false)
}

func dynamicScenarioMask(t *testing.T, workers, tile int, noMask bool) *Engine {
	t.Helper()
	g := testGraph(t, 120, 21)
	o := defaultTestOptions(4, 21)
	o.Workers = workers
	o.tileSize = tile
	o.noFrontierMask = noMask
	e, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()

	b, err := gen.PreferentialBatch(e.Graph(), 10, 2, 1, gen.Weights{Min: 1, Max: 4}, 33)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(b); err != nil {
		t.Fatal(err)
	}
	e.Run()

	// delete two edges incident to vertex 0 (they exist: BA graphs connect
	// every vertex, and deleting a missing edge would be a silent no-op)
	nbr := e.Graph().Neighbors(0)
	if len(nbr) < 2 {
		t.Fatalf("vertex 0 has %d neighbors", len(nbr))
	}
	dels := []change.EdgeDel{
		{U: 0, V: nbr[0].To},
		{U: 0, V: nbr[1].To},
	}
	if err := e.QueueEdgeDels(dels...); err != nil {
		t.Fatal(err)
	}
	e.Run()

	e.QueueRebalance()
	e.Run()

	if !e.Converged() {
		t.Fatalf("workers=%d: not converged", workers)
	}
	return e
}

// Worker-count invariance: the per-processor worker pool must not change
// results — converged distances and closeness are bit-identical for every
// worker count, and match the sequential oracle. Runs under the -race gate.
func TestWorkerCountInvariance(t *testing.T) {
	ref := dynamicScenario(t, 1)
	requireExact(t, ref)
	refDist := ref.Distances()
	refSnap := ref.Snapshot()
	for _, w := range []int{2, 4, 8} {
		e := dynamicScenario(t, w)
		dist := e.Distances()
		if len(dist) != len(refDist) {
			t.Fatalf("workers=%d: %d rows, want %d", w, len(dist), len(refDist))
		}
		for v := range dist {
			if (dist[v] == nil) != (refDist[v] == nil) {
				t.Fatalf("workers=%d: row presence differs at %d", w, v)
			}
			for u := range dist[v] {
				if dist[v][u] != refDist[v][u] {
					t.Fatalf("workers=%d: dist[%d][%d] = %d, want %d",
						w, v, u, dist[v][u], refDist[v][u])
				}
			}
		}
		snap := e.Snapshot()
		for v := range snap.Closeness {
			if snap.Closeness[v] != refSnap.Closeness[v] {
				t.Fatalf("workers=%d: closeness[%d] = %g, want %g",
					w, v, snap.Closeness[v], refSnap.Closeness[v])
			}
		}
	}
}

// Tile-size and mask invariance: the blocked-refinement tile edge and the
// frontier-mask knob are pure scheduling choices — converged distances and
// closeness must be bit-identical across tile sizes (including a tile
// spanning every row, i.e. untiled), worker counts, and masked-vs-full
// sweeps, and match the sequential oracle. The masked kernels only skip
// compositions the frontier proves non-improving, so every cell of this
// matrix lands on the same numbers. Runs under the -race gate.
func TestTileSizeInvariance(t *testing.T) {
	ref := dynamicScenarioMask(t, 1, 8, false)
	requireExact(t, ref)
	refDist := ref.Distances()
	refSnap := ref.Snapshot()
	for _, tile := range []int{8, 32, 64, 1 << 30 /* full: one tile spans all rows */} {
		for _, w := range []int{1, 4} {
			for _, noMask := range []bool{false, true} {
				if tile == 8 && w == 1 && !noMask {
					continue // the reference run
				}
				e := dynamicScenarioMask(t, w, tile, noMask)
				dist := e.Distances()
				for v := range dist {
					if (dist[v] == nil) != (refDist[v] == nil) {
						t.Fatalf("tile=%d workers=%d noMask=%v: row presence differs at %d", tile, w, noMask, v)
					}
					for u := range dist[v] {
						if dist[v][u] != refDist[v][u] {
							t.Fatalf("tile=%d workers=%d noMask=%v: dist[%d][%d] = %d, want %d",
								tile, w, noMask, v, u, dist[v][u], refDist[v][u])
						}
					}
				}
				snap := e.Snapshot()
				for v := range snap.Closeness {
					if snap.Closeness[v] != refSnap.Closeness[v] {
						t.Fatalf("tile=%d workers=%d noMask=%v: closeness[%d] = %g, want %g",
							tile, w, noMask, v, snap.Closeness[v], refSnap.Closeness[v])
					}
				}
			}
		}
	}
}

func TestQueueEdgeDelsValidation(t *testing.T) {
	g := testGraph(t, 40, 5)
	e, err := New(g, defaultTestOptions(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	bad := []change.EdgeDel{
		{U: -1, V: 2},  // negative endpoint
		{U: 0, V: 40},  // out of range
		{U: 7, V: 7},   // self-loop
		{U: 0, V: 999}, // far out of range
	}
	for _, d := range bad {
		if err := e.QueueEdgeDels(d); err == nil {
			t.Errorf("deletion {%d,%d}: expected error", d.U, d.V)
		}
	}
	if e.QueuedEvents() != 0 {
		t.Fatalf("invalid deletions were queued: %d events", e.QueuedEvents())
	}
	// a batch of invalid deletions must be rejected atomically
	if err := e.QueueEdgeDels(change.EdgeDel{U: 0, V: 1}, change.EdgeDel{U: 3, V: 3}); err == nil {
		t.Error("batch with a self-loop: expected error")
	}
	if e.QueuedEvents() != 0 {
		t.Fatal("partially valid batch was queued")
	}
	// deletions may reference vertices of still-queued batches
	if err := e.QueueBatch(&change.VertexBatch{NumVertices: 3}); err != nil {
		t.Fatal(err)
	}
	if err := e.QueueEdgeDels(change.EdgeDel{U: 1, V: 41}); err != nil {
		t.Errorf("deletion naming a queued vertex: %v", err)
	}
	if err := e.QueueEdgeDels(change.EdgeDel{U: 1, V: 43}); err == nil {
		t.Error("deletion beyond the queued batch: expected error")
	}
}

// Delta shipping must converge to the same (exact) distances as the
// ship-everything ablation while moving fewer bytes, and the step history
// must record which shipped rows were full-width.
func TestDeltaShippingMatchesShipAll(t *testing.T) {
	run := func(shipAll bool) *Engine {
		g := testGraph(t, 150, 9)
		o := defaultTestOptions(4, 9)
		o.ShipAllBoundary = shipAll
		e, err := New(g, o)
		if err != nil {
			t.Fatal(err)
		}
		e.Run()
		b, err := gen.PreferentialBatch(e.Graph(), 8, 2, 1, gen.Weights{Min: 1, Max: 4}, 13)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.QueueBatch(b); err != nil {
			t.Fatal(err)
		}
		e.Run()
		if !e.Converged() {
			t.Fatal("not converged")
		}
		return e
	}
	delta := run(false)
	shipAll := run(true)
	requireExact(t, delta)
	requireExact(t, shipAll)

	bytesOf := func(e *Engine) (total int64, fullRows, rows int) {
		for _, s := range e.History() {
			total += s.Bytes
			fullRows += s.FullRowsShipped
			rows += s.RowsShipped
		}
		return
	}
	dBytes, dFull, dRows := bytesOf(delta)
	aBytes, aFull, aRows := bytesOf(shipAll)
	if dBytes >= aBytes {
		t.Errorf("delta shipping moved %d bytes, ship-all %d", dBytes, aBytes)
	}
	if dFull >= dRows {
		t.Errorf("delta run shipped no windows: %d of %d rows full", dFull, dRows)
	}
	if aFull != aRows {
		t.Errorf("ship-all run recorded %d of %d rows full", aFull, aRows)
	}

	// The first step after IA ships every boundary row in full (fresh rows
	// have unknown change extent).
	first := delta.History()[0]
	if first.RowsShipped == 0 || first.FullRowsShipped != first.RowsShipped {
		t.Errorf("first step shipped %d/%d full rows, want all",
			first.FullRowsShipped, first.RowsShipped)
	}
}

// The relax phase's virtual-time charge divides by the worker count (the
// paper's per-node OpenMP threads); more workers must never slow the
// simulated clock.
func TestWorkerChargeAccounting(t *testing.T) {
	times := make(map[int]int64)
	for _, w := range []int{1, 4} {
		g := testGraph(t, 100, 17)
		o := defaultTestOptions(4, 17)
		o.Workers = w
		e, err := New(g, o)
		if err != nil {
			t.Fatal(err)
		}
		e.Run()
		times[w] = int64(e.Metrics().VirtualTime)
	}
	if times[4] >= times[1] {
		t.Errorf("virtual time with 4 workers (%d) not below 1 worker (%d)",
			times[4], times[1])
	}
}

func TestSplitBlocksCoverage(t *testing.T) {
	for n := 0; n <= 9; n++ {
		for w := 1; w <= 4; w++ {
			b := splitBlocks(n, w)
			if len(b) != w+1 || b[0] != 0 || b[w] != n {
				t.Fatalf("splitBlocks(%d,%d) = %v", n, w, b)
			}
			covered := 0
			for k := 0; k < w; k++ {
				if b[k] > b[k+1] {
					t.Fatalf("splitBlocks(%d,%d) not monotone: %v", n, w, b)
				}
				covered += b[k+1] - b[k]
			}
			if covered != n {
				t.Fatalf("splitBlocks(%d,%d) covers %d", n, w, covered)
			}
		}
	}
}

// Convergence is the anchor of the masked skip rule: once the engine
// reports converged, every row's change frontier must be cleared (the new
// epoch starts empty), and the step history must carry the frontier
// telemetry — masked work when masking is on, none when it is off.
func TestFrontierClearedAtConvergence(t *testing.T) {
	g := testGraph(t, 120, 23)
	e, err := New(g, defaultTestOptions(4, 23))
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	// A cold start is all-FAll rows (unknown extent), so the masked path
	// only engages after the first convergence clears the epoch and a
	// dynamic change leaves a sparse frontier behind.
	b, err := gen.PreferentialBatch(e.Graph(), 10, 2, 1, gen.Weights{Min: 1, Max: 4}, 23)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.QueueBatch(b); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if !e.Converged() {
		t.Fatal("not converged")
	}
	for pid, p := range e.procs {
		for _, r := range p.table.Rows() {
			if r.FAll {
				t.Fatalf("proc %d row %d still FAll after convergence", pid, r.Owner)
			}
			if r.F.Any() {
				t.Fatalf("proc %d row %d has frontier bits after convergence", pid, r.Owner)
			}
		}
	}
	var masked int64
	for _, s := range e.History() {
		masked += s.MaskedOps
		if s.BoundGap < 0 || s.BoundGap > 1 {
			t.Fatalf("step %d: frontier density %g out of range", s.Step, s.BoundGap)
		}
	}
	if masked == 0 {
		t.Fatal("no masked ops recorded across the run")
	}

	o := defaultTestOptions(4, 23)
	o.noFrontierMask = true
	eo, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	eo.Run()
	for _, s := range eo.History() {
		if s.MaskedOps != 0 {
			t.Fatalf("step %d: masked ops %d with masking disabled", s.Step, s.MaskedOps)
		}
	}
}
