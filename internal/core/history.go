package core

import "time"

// StepStats records what one recombination step did — the raw material for
// convergence plots and for diagnosing dynamic-change absorption.
type StepStats struct {
	// Step is the RC step index (0-based).
	Step int
	// BoundaryMessages is the number of boundary-DV messages shipped.
	BoundaryMessages int
	// RowsShipped is the number of distinct dirty boundary rows shipped.
	RowsShipped int
	// FullRowsShipped counts shipped rows that carried their entire width
	// (fresh, migrated, or disturbed rows); the remainder were delta
	// windows covering only the columns changed since the last ship.
	FullRowsShipped int
	// Bytes is the boundary-DV payload shipped this step.
	Bytes int64
	// RelaxOps is the relax/refine work performed this step.
	RelaxOps int64
	// Virtual is the cumulative simulated time after the step.
	Virtual time.Duration
	// ConvergedAfter reports whether the step ended converged (before any
	// queued change applied).
	ConvergedAfter bool
	// ChangeApplied names the dynamic change incorporated at the end of
	// the step ("" if none).
	ChangeApplied string

	// Convergence-quality telemetry: cheap anytime-quality proxies computed
	// every step (the live counterpart of the paper's Fig. 4 trajectories).
	// All per-proc slices are indexed by processor and freshly allocated per
	// step; a crashed processor reports its row count with zero dirty rows
	// and zero relax ops.

	// TotalRows is the number of DV rows across all processors.
	TotalRows int
	// DirtyRows counts rows still carrying un-propagated content after the
	// step; TotalRows - DirtyRows is the rows-converged quality proxy.
	DirtyRows int
	// MaxDeltaWidth is the widest boundary delta shipped this step (columns)
	// — the maximum residual update still moving through the cluster.
	MaxDeltaWidth int
	// ProcRows is the per-processor DV row count.
	ProcRows []int
	// ProcDirty is the per-processor dirty row count after the step.
	ProcDirty []int
	// ProcBoundary is the per-processor local-boundary vertex count.
	ProcBoundary []int
	// ProcRelaxOps is the per-processor relax/refine work of the step.
	ProcRelaxOps []int64
	// ProcBusy is the per-processor virtual *busy* time accrued during the
	// step (explicit LogP charges; barrier idling excluded).
	ProcBusy []time.Duration
	// Imbalance is max/mean over ProcBusy — the paper's Fig. 5 load-balance
	// metric, live per step. 1.0 is perfectly balanced.
	Imbalance float64

	// Frontier telemetry (the masked min-plus kernels, DESIGN.md §14).

	// FrontierWords is the number of nonzero frontier bitmask words across
	// all rows after the step (FAll rows count as fully set).
	FrontierWords int
	// MaskedOps is the subset of RelaxOps performed through masked sweeps —
	// columns actually visited under a frontier mask. Zero when masking is
	// disabled or every pass fell back to full sweeps.
	MaskedOps int64
	// BoundGap is set frontier bits / total DV cells after the step (0 at
	// an exact fixpoint): the frontier density averaged over the whole
	// table, exported as aa_step_bound_gap.
	BoundGap float64
}

// History returns a copy of the per-step statistics recorded so far. The
// copy is safe to hold across further Step calls (the engine keeps
// appending to its own log); the per-proc slices inside each entry are
// shared and must be treated as read-only.
func (e *Engine) History() []StepStats {
	return append([]StepStats(nil), e.history...)
}

// recordStep appends one step's statistics (called at the end of Step).
func (e *Engine) recordStep(s StepStats) {
	e.history = append(e.history, s)
}
