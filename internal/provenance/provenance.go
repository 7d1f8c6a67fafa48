// Package provenance implements the multilevel cell-based provenance
// model of Section 4 of "Explaining Queries over Web Tables to
// Non-Experts" (ICDE 2019) and its two applications from Section 5.2:
// provenance-based table highlights (Algorithm 1) and record sampling
// for large tables (Section 5.3).
//
// For a query Q over table T the model defines three nested provenance
// sets (Definition 4.1):
//
//	PO(Q,T) — the cells output by Q(T), or used to compute an aggregate
//	          or arithmetic output, plus the aggregate functions applied;
//	PE(Q,T) — the union of PO over every sub-query of Q: everything
//	          examined during execution;
//	PC(Q,T) — every cell of every column Q projects or aggregates on.
//
// The chain PO ⊆ PE ⊆ PC (verified by this package's property tests)
// makes the three sets render as strictly widening highlight layers:
// colored ⊆ framed ⊆ lit.
package provenance

import (
	"context"
	"slices"

	"nlexplain/internal/dcs"
	"nlexplain/internal/table"
)

// Prov is the multilevel cell-based provenance Prov(Q,T) =
// (PO, PE, PC) of Definition 4.2, together with the aggregate functions
// involved in the execution and their header positions. Each level is a
// table.Level, held by column: PC as the columns it covers whole, PO
// and PE as the rows their cells lie on. The executor reports witness
// cells in that form, a column and its rows, so PO arrives as the
// execution's result holds it and PE is built once, from the tracer;
// the cells are listed only where they are drawn or encoded.
type Prov struct {
	// Output is PO(Q,T): output/witness cells.
	Output table.Level
	// Execution is PE(Q,T): cells examined during execution.
	Execution table.Level
	// Columns is PC(Q,T): all cells of projected/aggregated columns.
	Columns table.Level
	// Aggrs lists the aggregate functions that are members of the
	// provenance sets (Definition 4.1 allows cells and aggregate
	// functions in the same set), outermost first.
	Aggrs []dcs.AggrFn
	// HeaderAggrs maps a column index to the aggregate function marked
	// on its header by MarkColumnHeader (Algorithm 1, line 5) — e.g.
	// MAX(Year) in Figure 1. Nil for a query without aggregates.
	HeaderAggrs map[int]dcs.AggrFn
}

// Compute evaluates the provenance of q on t with a single traced
// execution of the compiled plan: the root's witness cells are PO
// (Equation 1) and the CellTracer's union over all operator boundaries
// is PE (Equation 2) — each plan operator corresponds to one
// sub-formula of QSUB, so the union over boundaries equals the union
// of PO over the recursive decomposition of Algorithm 1 without
// re-executing every sub-query.
func Compute(q dcs.Expr, t *table.Table) (*Prov, error) {
	c, err := dcs.Compile(q, t)
	if err != nil {
		return nil, err
	}
	p, _, err := ComputeCompiledCtx(nil, c, t)
	return p, err
}

// ComputeCompiledCtx is Compute for an already-compiled query, with
// cooperative cancellation threaded into the traced execution; a nil
// ctx disables the checks. The source expression is read off the plan.
// The traced execution's own Result is returned alongside the
// provenance so callers needing both (the explanation pipeline) pay
// for exactly one execution.
func ComputeCompiledCtx(ctx context.Context, c *dcs.Compiled, t *table.Table) (*Prov, *dcs.Result, error) {
	q := c.Expr
	tr := NewCellTracer()
	top, err := c.ExecuteWithCtx(ctx, t, tr)
	if err != nil {
		return nil, nil, err
	}
	p := &Prov{}

	// PO is the root's witness cells, PE the tracer's union. The root
	// reports to the tracer like every operator, so PO ⊆ PE; keeping
	// PE's cells in PC makes PE ⊆ PC structural.
	p.Output = top.Cells
	p.Execution = tr.Level(t.NumRows())

	// PC: all cells of every projected or aggregated column (Equation 3),
	// each such column held whole.
	var cols []int
	for _, colName := range dcs.Columns(q) {
		if col, ok := t.ColumnIndex(colName); ok { // always, after Check
			cols = append(cols, col)
		}
	}
	slices.Sort(cols)
	p.Columns = p.Execution.WithColumns(slices.Compact(cols))

	// Aggregate functions, outermost first, and their header markers
	// (Algorithm 1, l. 4-5): a header keeps the first function marked
	// on it.
	mark := func(col int, fn dcs.AggrFn) {
		if p.HeaderAggrs == nil {
			p.HeaderAggrs = make(map[int]dcs.AggrFn)
		}
		if _, taken := p.HeaderAggrs[col]; !taken {
			p.HeaderAggrs[col] = fn
		}
	}
	for _, sub := range dcs.Subqueries(q) {
		switch x := sub.(type) {
		case *dcs.Aggregate:
			p.Aggrs = append(p.Aggrs, x.Fn)
			if col, ok := aggregateHeaderColumn(x, t); ok {
				mark(col, x.Fn)
			}
		case *dcs.MostFrequent:
			p.Aggrs = append(p.Aggrs, dcs.Count)
			if col, ok := t.ColumnIndex(x.Column); ok {
				mark(col, dcs.Count)
			}
		}
	}
	return p, top, nil
}

// aggregateHeaderColumn picks the header to mark for an aggregate node:
// the first column its argument projects (MAX(Year) for
// max(R[Year].Country.Greece); COUNT(City) for count(City.Athens)).
func aggregateHeaderColumn(a *dcs.Aggregate, t *table.Table) (int, bool) {
	cols := dcs.Columns(a.Arg)
	if len(cols) == 0 {
		return 0, false
	}
	return t.ColumnIndex(cols[0])
}
