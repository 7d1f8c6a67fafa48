package provenance

import (
	"context"
	"sort"

	"nlexplain/internal/dcs"
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

// Highlights is the result of Algorithm 1: the provenance sets plus the
// strongest marking of every involved cell.
type Highlights struct {
	Prov *Prov
	// marks holds the strongest marking per cell; cells absent from the
	// map are unrelated to the query.
	marks map[table.CellRef]Marking
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
	return markProv(p), nil
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
	return markProv(p), res, nil
}

func markProv(p *Prov) *Highlights {
	h := &Highlights{Prov: p, marks: make(map[table.CellRef]Marking, len(p.Columns))}
	for c := range p.Columns {
		h.marks[c] = Lit
	}
	for c := range p.Execution {
		h.marks[c] = Framed
	}
	for c := range p.Output {
		h.marks[c] = Colored
	}
	return h
}

// Marking returns the marking of a cell.
func (h *Highlights) Marking(c table.CellRef) Marking { return h.marks[c] }

// MarkingAt returns the marking of the cell at (row, col).
func (h *Highlights) MarkingAt(row, col int) Marking {
	return h.marks[table.CellRef{Row: row, Col: col}]
}

// HeaderAggr returns the aggregate function marked on a column header,
// if any (the MAX in "MAX(Year)" of Figure 1).
func (h *Highlights) HeaderAggr(col int) (dcs.AggrFn, bool) {
	fn, ok := h.Prov.HeaderAggrs[col]
	return fn, ok
}

// CountByMarking tallies cells per marking, a convenience for tests and
// experiment reports.
func (h *Highlights) CountByMarking() map[Marking]int {
	out := make(map[Marking]int)
	for _, m := range h.marks {
		out[m]++
	}
	return out
}

// Sample implements the record sampling of Section 5.3 for scaling
// highlights to large tables: one record from RO, one from RE∖RO and
// one from RC∖RE, each the earliest such record; queries containing an
// arithmetic difference contribute one record per subtracted operand
// (Figure 7 shows the resulting three-row rendering). Records are
// returned in table order.
func Sample(q dcs.Expr, t *table.Table, h *Highlights) []int {
	chosen := make(map[int]bool)
	add := func(rows []int) {
		if len(rows) > 0 {
			chosen[rows[0]] = true
		}
	}

	ro := table.NewCellSet(h.Prov.Output.Sorted()...)
	re := h.Prov.Execution.Minus(h.Prov.Output)
	rc := h.Prov.Columns.Minus(h.Prov.Execution)

	// Difference queries contribute one output record per operand.
	if sub := findSub(q); sub != nil {
		for _, side := range []dcs.Expr{sub.L, sub.R} {
			if r, err := dcs.Execute(side, t); err == nil {
				set := table.NewCellSet(r.Cells...)
				add(set.Rows())
			}
		}
	} else {
		add(ro.Rows())
	}
	add(stratumRows(re, chosen))
	add(stratumRows(rc, chosen))

	out := make([]int, 0, len(chosen))
	for r := range chosen {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// stratumRows returns the rows of a stratum excluding already-chosen
// records, so each stratum contributes a fresh representative.
func stratumRows(s table.CellSet, chosen map[int]bool) []int {
	var out []int
	for _, r := range s.Rows() {
		if !chosen[r] {
			out = append(out, r)
		}
	}
	return out
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
