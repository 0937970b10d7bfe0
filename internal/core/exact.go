package core

import (
	"math/bits"

	"anytime/internal/dv"
	"anytime/internal/graph"
	"anytime/internal/kernel"
)

// This file is the relax phase of an exact-state step (DESIGN.md §14,
// "Exact-state steps"): a table that is exact APSP of the current graph,
// where no sweep can improve a cell, so the phase charges what its sweeps
// would have charged and runs none of them.
//
// With nothing improving, a sweep's charge is fixed by the kernels'
// decision logic alone: nothing when the row's distance to the pivot's
// owner is InfDist, the mask's columns when kernel.SweepMask picks the
// pivot's mask, the pivot's full length otherwise. On an exact APSP matrix
// D(u, t) is InfDist exactly when u and t lie in different components of
// the graph, so the per-(row, pivot) test needs no distance at all. Per
// phase, each pivot's full charge goes into its component's totals, and a
// masked pivot's mask columns and saving (full charge minus mask columns)
// into its owner column's. A row then takes its own component's totals as
// if every masked pivot ran masked, and adds back the saving of each masked
// pivot whose owner bit its frontier holds — the pivots SweepMask sweeps in
// full — or takes the full totals when its change extent is unknown (FAll).
// Refinement pivots every row but the pivot's own, which the tile rounds'
// phase A (the tile's other rows) and phase B (every row outside the tile)
// sum to, so the pivot's own share is taken back from its row.
//
// The cost is O(pivots + rows · ⌈cols/64⌉ + frontier hits) per processor
// instead of O(rows × pivots), and no tile round runs.

// components labels the vertices of the graph an exact phase runs over by
// connected component, shared read-only by every processor's phase.
type components struct {
	label []int32 // label[v] is v's component; nil when the graph is connected
	n     int
}

// labelComponents labels g's vertices in one O(n+m) pass.
func labelComponents(g *graph.Graph) *components {
	label, n := graph.ConnectedComponents(g)
	if n == 1 {
		label = nil // the connected fast path: every label is 0
	}
	return &components{label: label, n: n}
}

// of returns v's component.
func (c *components) of(v int32) int32 {
	if c.label == nil {
		return 0
	}
	return c.label[v]
}

// chargeSums is the per-phase scratch of the closed form, kept across
// steps: per component, the pivots' full charge (full), their charge with
// every masked pivot swept masked (least) and those sweeps' mask columns
// (masked); per owner column of a masked pivot (set in owners), the saving
// its masks give (save) and their columns (mops). The owner-column entries
// are zero between phases.
type chargeSums struct {
	full, least, masked []int64
	save, mops          []int64
	owners              kernel.Bitset
}

// reset readies the sums for a phase over comps components and cols
// columns.
func (s *chargeSums) reset(comps, cols int) {
	if len(s.full) < comps {
		s.full = make([]int64, comps)
		s.least = make([]int64, comps)
		s.masked = make([]int64, comps)
	}
	clear(s.full[:comps])
	clear(s.least[:comps])
	clear(s.masked[:comps])
	if len(s.save) < cols {
		s.save = make([]int64, 2*cols)
		s.mops = make([]int64, 2*cols)
		s.owners = kernel.NewBitset(2 * cols)
	}
}

// add sums in one pivot of component c whose distance sits in column
// owner: full is its charge when swept in full, mask (nil: always swept in
// full) its frontier as compiled for width.
func (s *chargeSums) add(c, owner int32, full int, mask kernel.Bitset, width int) {
	s.full[c] += int64(full)
	if mask == nil {
		s.least[c] += int64(full)
		return
	}
	k := int64(mask.OnesCountBelow(width))
	s.least[c] += k
	s.masked[c] += k
	s.save[owner] += int64(full) - k
	s.mops[owner] += k
	s.owners.Set(int(owner))
}

// row returns the ops and masked ops the phase's pivots charge row u of
// component c.
func (s *chargeSums) row(u *dv.Row, c int32, comps *components) (ops, masked int64) {
	if u.FAll {
		return s.full[c], 0
	}
	ops, masked = s.least[c], s.masked[c]
	f := u.F
	for w := range f[:min(len(f), len(s.owners))] {
		for x := f[w] & s.owners[w]; x != 0; x &= x - 1 {
			o := int32(w<<6 | bits.TrailingZeros64(x))
			if comps.of(o) == c {
				ops += s.save[o]
				masked -= s.mops[o]
			}
		}
	}
	return ops, masked
}

// clear zeroes the owner-column entries the phase set.
func (s *chargeSums) clear() {
	for w, word := range s.owners {
		for x := word; x != 0; x &= x - 1 {
			o := w<<6 | bits.TrailingZeros64(x)
			s.save[o], s.mops[o] = 0, 0
		}
		s.owners[w] = 0
	}
}

// exactCharge returns the ops and masked ops of an exact-state relax phase
// (p.exact set) through the received deltas ext and, for the rows marked
// in p.pivot, local refinement.
func (p *Proc) exactCharge(ext []*dv.Delta) (ops, masked int64) {
	comps := p.exact
	rows := p.table.Rows()
	cols := p.table.Cols()
	s := &p.sums
	s.reset(comps.n, cols)
	for _, br := range ext {
		if int(br.Lo) >= cols {
			continue // not pushed: it covers no local column
		}
		mask, width := p.deltaMask(br)
		s.add(comps.of(br.Owner), br.Owner, len(br.D), mask, width)
	}
	for i, r := range rows {
		if p.pivot[i] {
			s.add(comps.of(r.Owner), r.Owner, cols, p.pivotMask(r), cols)
		}
	}
	for i, u := range rows {
		o, m := s.row(u, comps.of(u.Owner), comps)
		if p.pivot[i] {
			// the pivot's own share: pivotMask is nil for an FAll row
			if mask := p.pivotMask(u); mask != nil && !u.F.Get(int(u.Owner)) {
				k := int64(mask.OnesCountBelow(cols))
				o, m = o-k, m-k
			} else {
				o -= int64(cols)
			}
		}
		ops, masked = ops+o, masked+m
	}
	s.clear()
	return ops, masked
}
