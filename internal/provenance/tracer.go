package provenance

import (
	"nlexplain/internal/plan"
	"nlexplain/internal/table"
)

// The provenance hook the plan executor calls at every operator
// boundary is plan.Tracer: the interface lives in internal/plan, which
// cannot import this package without a cycle through dcs. plan.Noop is
// its inactive form, the answer-only fast path; CellTracer, the full
// PO-cell tracer used for explanations, is this package's.
var _ plan.Tracer = (*CellTracer)(nil)

// CellTracer accumulates every operator's PO witness cells during one
// plan execution. Because plan operators correspond one-to-one to
// query sub-expressions (and the only folds Compile applies, joins and
// unions over literal sets, preserve PO), their union equals PE(Q,T) —
// the union of PO over QSUB (Equation 2) — without re-executing each
// sub-query. Its cells are the execution's transient form, a
// table.CellSet; Compute keeps PE as a table.Level built from them, and
// the tracer is garbage once it has.
type CellTracer struct {
	// cells is the operators' reports end to end: sorted runs, not yet
	// one sorted set.
	cells []table.CellRef
}

// NewCellTracer returns a CellTracer that has seen no operator, with
// room for the reports of a selective query before it has to grow.
func NewCellTracer() *CellTracer {
	return &CellTracer{cells: make([]table.CellRef, 0, 32)}
}

// Active reports true: every operator computes its witness cells.
func (c *CellTracer) Active() bool { return true }

// Operator keeps one operator's witness cells. They live in the
// execution's arena, so they are copied; bringing the runs into one
// set waits for Cells.
func (c *CellTracer) Operator(_ string, cells []table.CellRef) {
	c.cells = append(c.cells, cells...)
}

// Cells returns the union of every report so far — sorted,
// duplicate-free and, the slice being NewCellTracer's, never nil —
// normalising the accumulated runs in place.
func (c *CellTracer) Cells() table.CellSet {
	c.cells = table.DedupCells(c.cells)
	return c.cells
}
