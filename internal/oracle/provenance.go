package oracle

import (
	"slices"

	"nlexplain/internal/dcs"
	"nlexplain/internal/table"
)

// Prov is the reference for the multilevel provenance of Definition 4.1:
// each level as the cells it lists, sorted row-major and distinct, and
// the aggregate functions with the headers Algorithm 1 marks them on.
type Prov struct {
	Output, Execution, Columns []table.CellRef
	// Aggrs are the aggregate functions applied, outermost first.
	Aggrs []dcs.AggrFn
	// HeaderAggrs maps a column index to the function marked on its
	// header; nil when nothing is aggregated.
	HeaderAggrs map[int]dcs.AggrFn
}

// Provenance computes the provenance of e on t literally from the
// definitions, with one tree-walking execution per sub-expression:
//
//	PO(Q,T) — the witness cells of Q's own execution;
//	PE(Q,T) — the union of PO(S,T) over every sub-expression S of Q
//	          (Q included, through Children);
//	PC(Q,T) — every cell of every column Q projects or aggregates, and
//	          PE, so the chain PO ⊆ PE ⊆ PC holds.
//
// An aggregate marks its function on the header of the first column its
// argument projects, and the most-frequent superlative marks count on
// its column (Algorithm 1, lines 4-5); a header keeps the first,
// outermost, function marked on it.
func Provenance(e dcs.Expr, t *table.Table) (*Prov, error) {
	root, err := Execute(e, t)
	if err != nil {
		return nil, err
	}
	p := &Prov{Output: slices.Collect(root.Cells.All())}

	var exec []table.CellRef
	var walk func(s dcs.Expr) error
	walk = func(s dcs.Expr) error {
		r, err := Execute(s, t)
		if err != nil {
			return err
		}
		exec = slices.AppendSeq(exec, r.Cells.All())
		switch x := s.(type) {
		case *dcs.Aggregate:
			p.Aggrs = append(p.Aggrs, x.Fn)
			if cols := dcs.Columns(x.Arg); len(cols) > 0 {
				p.mark(t, cols[0], x.Fn)
			}
		case *dcs.MostFrequent:
			p.Aggrs = append(p.Aggrs, dcs.Count)
			p.mark(t, x.Column, dcs.Count)
		}
		for _, c := range s.Children() {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(e); err != nil {
		return nil, err
	}
	p.Execution = distinct(exec, rowMajor)

	cols := append([]table.CellRef{}, p.Execution...)
	for _, name := range dcs.Columns(e) {
		col, _ := t.ColumnIndex(name)
		for r := 0; r < t.NumRows(); r++ {
			cols = append(cols, table.CellRef{Row: r, Col: col})
		}
	}
	p.Columns = distinct(cols, rowMajor)
	return p, nil
}

func (p *Prov) mark(t *table.Table, column string, fn dcs.AggrFn) {
	col, ok := t.ColumnIndex(column)
	if !ok {
		return
	}
	if p.HeaderAggrs == nil {
		p.HeaderAggrs = make(map[int]dcs.AggrFn)
	}
	if _, taken := p.HeaderAggrs[col]; !taken {
		p.HeaderAggrs[col] = fn
	}
}
