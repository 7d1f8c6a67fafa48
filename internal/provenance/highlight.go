package provenance

import (
	"context"
	"slices"

	"nlexplain/internal/dcs"
	"nlexplain/internal/plan"
	"nlexplain/internal/table"
)

// Marking is the visual class assigned to a table cell by the
// Highlight procedure of Section 5.2: colored cells are PO, framed
// cells PE, lit cells PC, and all other cells are unrelated to the
// query.
type Marking int

const (
	// None marks cells unrelated to the query.
	None Marking = iota
	// Lit marks PC cells: columns projected or aggregated on.
	Lit
	// Framed marks PE cells: examined during execution.
	Framed
	// Colored marks PO cells: the query output or its direct inputs.
	Colored
)

// String names the marking as in the paper.
func (m Marking) String() string {
	switch m {
	case Lit:
		return "lit"
	case Framed:
		return "framed"
	case Colored:
		return "colored"
	default:
		return "none"
	}
}

// Highlights is the result of Algorithm 1: the provenance sets, read as
// the strongest marking of every involved cell.
type Highlights struct {
	Prov *Prov
	// exec is the executor of the run that built the highlights, which
	// Sample's operand runs take too.
	exec *plan.Exec
}

// Highlight implements Algorithm 1 (Highlight(Q, T, output=true)): it
// recursively computes the multilevel cell-based provenance of q on t
// and assigns each cell its strongest marking — ColorCells(PO),
// FrameCells(PE), LitCells(PC).
func Highlight(q dcs.Expr, t *table.Table) (*Highlights, error) {
	p, err := Compute(q, t)
	if err != nil {
		return nil, err
	}
	return &Highlights{Prov: p}, nil
}

// HighlightCompiledCtx is Highlight for an already-compiled query, with
// cooperative cancellation threaded into the traced execution (a nil
// ctx disables the checks). The top-level execution Result is returned
// alongside the highlights so the explanation pipeline gets both from
// one traced execution.
func HighlightCompiledCtx(ctx context.Context, c *dcs.Compiled, t *table.Table) (*Highlights, *dcs.Result, error) {
	p, res, err := ComputeCompiledCtx(ctx, c, t)
	if err != nil {
		return nil, nil, err
	}
	return &Highlights{Prov: p, exec: c.Exec}, res, nil
}

// Marking returns the marking of a cell, asked from the widest level
// in, so a cell outside every mentioned column — most of a table —
// costs one scan of PC's few columns.
func (h *Highlights) Marking(c table.CellRef) Marking {
	p := h.Prov
	inPC := p.Columns.Contains(c)
	inPE := inPC && p.Execution.Contains(c)
	return Innermost(inPC, inPE, inPE && p.Output.Contains(c))
}

// Innermost is Algorithm 1's marking rule: a cell takes the innermost
// level of the chain PO ⊆ PE ⊆ PC that holds it, and None outside PC.
// inPC, inPE and inPO say which levels hold the cell.
func Innermost(inPC, inPE, inPO bool) Marking {
	switch {
	case !inPC:
		return None
	case !inPE:
		return Lit
	case !inPO:
		return Framed
	}
	return Colored
}

// MarkingAt returns the marking of the cell at (row, col).
func (h *Highlights) MarkingAt(row, col int) Marking {
	return h.Marking(table.CellRef{Row: row, Col: col})
}

// HeaderAggr returns the aggregate function marked on a column header,
// if any (the MAX in "MAX(Year)" of Figure 1).
func (h *Highlights) HeaderAggr(col int) (dcs.AggrFn, bool) {
	fn, ok := h.Prov.HeaderAggrs[col]
	return fn, ok
}

// CountByMarking tallies cells per marking, a convenience for tests and
// experiment reports: each level's cells less the level inside it.
func (h *Highlights) CountByMarking() map[Marking]int {
	p := h.Prov
	po, pe := p.Output.Len(), p.Execution.Len()
	return map[Marking]int{
		Colored: po,
		Framed:  pe - po,
		Lit:     p.Columns.Len() - pe,
	}
}

// SampleThreshold is the row count past which a table counts as large:
// every renderer and the wire format draw a table with more records
// through its Section 5.3 Sample instead of whole.
const SampleThreshold = 40

// Sample implements the record sampling of Section 5.3 for scaling
// highlights to large tables: one record from RO, one from RE∖RO and
// one from RC∖RE, each the earliest such record; queries containing an
// arithmetic difference contribute one record per subtracted operand
// (Figure 7 shows the resulting three-row rendering). Records are
// returned in table order, and as an empty list — not nil, which
// renderers read as "every record" — when nothing is highlighted.
func Sample(q dcs.Expr, t *table.Table, h *Highlights) []int {
	p := h.Prov
	// Two operands or one output record, then one per stratum.
	chosen := make([]int, 0, 4)
	// Row-major order puts a level's earliest record in its first cell.
	addFirst := func(level table.Level) {
		for c := range level.All() {
			if !slices.Contains(chosen, c.Row) {
				chosen = append(chosen, c.Row)
			}
			return
		}
	}
	// A stratum is a level less the level inside it, walked row-major;
	// it contributes its earliest record not chosen yet, a fresh
	// representative.
	addFresh := func(level, inner table.Level) {
		for c := range level.All() {
			if !inner.Contains(c) && !slices.Contains(chosen, c.Row) {
				chosen = append(chosen, c.Row)
				return
			}
		}
	}

	// Difference queries contribute one output record per operand, each
	// run in the executor of the run that built h.
	if sub := findSub(q); sub != nil {
		for _, side := range []dcs.Expr{sub.L, sub.R} {
			if r, err := dcs.ExecuteIn(h.exec, side, t, plan.Capture{}); err == nil {
				addFirst(r.Cells)
			}
		}
	} else {
		addFirst(p.Output)
	}
	addFresh(p.Execution, p.Output)
	addFresh(p.Columns, p.Execution)
	slices.Sort(chosen)
	return chosen
}

// findSub locates the outermost arithmetic difference in q, if any.
func findSub(q dcs.Expr) *dcs.Sub {
	if s, ok := q.(*dcs.Sub); ok {
		return s
	}
	for _, c := range q.Children() {
		if s := findSub(c); s != nil {
			return s
		}
	}
	return nil
}
