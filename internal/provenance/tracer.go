package provenance

import (
	"slices"
	"sync"

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
// query sub-expressions (and the only fold Compile applies, a union of
// literal sets into one Const, preserves PO), their union equals PE(Q,T) —
// the union of PO over QSUB (Equation 2) — without re-executing each
// sub-query. It holds the union by column, each column's rows in one
// bitmap, and Level brings it into a table.Level once.
type CellTracer struct {
	// cols holds the columns reported so far, ascending, each with the
	// rows of its cells reported so far.
	cols []tracedColumn
	// spare, rows and spans are what a pooled tracer keeps for the
	// next: emptied bitmaps, and the scratch Level lists PE in before
	// the level copies it.
	spare []plan.RowSet
	rows  []int32
	spans []table.Span
}

type tracedColumn struct {
	col  int
	rows plan.RowSet
}

// tracerPool recycles the memory of tracers Level has finished: PE
// over a big table costs its level, not a bitmap of every row besides.
var tracerPool = sync.Pool{New: func() any { return new(CellTracer) }}

// NewCellTracer returns a CellTracer that has seen no operator.
func NewCellTracer() *CellTracer { return tracerPool.Get().(*CellTracer) }

// Active reports true: every operator computes its witness cells.
func (c *CellTracer) Active() bool { return true }

// Operator ORs one operator's witness rows into their columns' bitmaps.
func (c *CellTracer) Operator(_ string, spans []table.Span) {
	for _, sp := range spans {
		k, found := slices.BinarySearchFunc(c.cols, sp.Col, func(tc tracedColumn, col int) int { return tc.col - col })
		if !found {
			var rows plan.RowSet
			if n := len(c.spare); n > 0 {
				rows, c.spare = c.spare[n-1], c.spare[:n-1]
			}
			c.cols = slices.Insert(c.cols, k, tracedColumn{col: sp.Col, rows: rows})
		}
		c.cols[k].rows.Or(sp.Rows)
	}
}

// Level returns the union of every report as a level over a table of
// rows records, and returns the tracer to the pool NewCellTracer draws
// from: it must not be used after.
func (c *CellTracer) Level(rows int) table.Level {
	total := 0
	for _, tc := range c.cols {
		total += tc.rows.Count()
	}
	c.rows = slices.Grow(c.rows[:0], total)
	c.spans = c.spans[:0]
	for _, tc := range c.cols {
		at := len(c.rows)
		c.rows = tc.rows.AppendRows(c.rows)
		c.spans = append(c.spans, table.Span{Col: tc.col, Rows: c.rows[at:]})
	}
	l := table.NewLevel(rows, c.spans)
	for _, tc := range c.cols {
		tc.rows.Reset()
		c.spare = append(c.spare, tc.rows)
	}
	c.cols = c.cols[:0]
	tracerPool.Put(c)
	return l
}
