package experiments

import (
	"slices"
	"testing"

	"nlexplain/internal/dcs"
	"nlexplain/internal/oracle"
	"nlexplain/internal/sqlgen"
)

// TestFixturePlanDifferential executes every figure query of the paper
// gallery through both the reference interpreter and the plan path and
// requires identical answer keys and witness cells. Where a query has a
// Table 10 SQL translation, the translation must denote what the query
// does on the figure's own table (equivalentOnTable's rule) — the paper's
// claim, checked on every figure table, the 20 000-row Figure 7 one
// included.
func TestFixturePlanDifferential(t *testing.T) {
	for n, spec := range figureSpecs {
		tab := FigureTable(n)
		for _, src := range spec.queries {
			e, err := dcs.Parse(src)
			if err != nil {
				t.Fatalf("figure %d: Parse(%q): %v", n, src, err)
			}
			want, werr := oracle.Execute(e, tab)
			got, gerr := dcs.Execute(e, tab)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("figure %d %s: error divergence: interpreter=%v plan=%v", n, src, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if wk, gk := want.AnswerKey(), got.AnswerKey(); wk != gk {
				t.Errorf("figure %d %s: AnswerKey = %q, want %q", n, src, gk, wk)
			}
			if wc, gc := slices.Collect(want.Cells.All()), slices.Collect(got.Cells.All()); !slices.Equal(wc, gc) {
				t.Errorf("figure %d %s: cells = %v, want %v", n, src, gc, wc)
				continue
			}

			sql, err := sqlgen.TranslateSQL(e)
			if err != nil {
				continue
			}
			if !equivalentOnTable(e, sql, tab) {
				t.Errorf("figure %d %s: SQL translation %s is not equivalent on the figure's table", n, src, sql)
			}
		}
	}
}

// TestTable10StillEquivalent re-checks the operator-by-operator
// DCS-vs-SQL equivalence of Table 10 on the Figure 1 table.
func TestTable10StillEquivalent(t *testing.T) {
	for _, row := range RunTable10() {
		if !row.Equivalent {
			t.Errorf("operator %q (%s) no longer SQL-equivalent", row.Operator, row.Query)
		}
	}
}

// TestFigureQueriesRenderAsWritten pins dcs.Render on the paper's own
// queries: every figure query and every Table 10 query parses, and
// renders back to the text it was written as.
func TestFigureQueriesRenderAsWritten(t *testing.T) {
	var srcs []string
	for _, spec := range figureSpecs {
		srcs = append(srcs, spec.queries...)
	}
	for _, row := range RunTable10() {
		srcs = append(srcs, row.Query)
	}
	for _, src := range srcs {
		e, err := dcs.Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if got := e.String(); got != src {
			t.Errorf("Parse(%q).String() = %q", src, got)
		}
	}
}
