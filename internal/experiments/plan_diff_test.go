package experiments

import (
	"testing"

	"nlexplain/internal/dcs"
	"nlexplain/internal/minisql"
	"nlexplain/internal/oracle"
	"nlexplain/internal/sqlgen"
)

// TestFixturePlanDifferential executes every figure query of the paper
// gallery through both the legacy interpreter and the plan path and
// requires identical answer keys and witness cells, and does the same
// for every Table 10 SQL translation through both minisql paths. This
// is the end-to-end guard that the plan refactor preserves the
// semantics of every fixture in the repository.
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
			if len(want.Cells) != len(got.Cells) {
				t.Errorf("figure %d %s: cells = %v, want %v", n, src, got.Cells, want.Cells)
				continue
			}
			for i := range want.Cells {
				if want.Cells[i] != got.Cells[i] {
					t.Errorf("figure %d %s: cells = %v, want %v", n, src, got.Cells, want.Cells)
					break
				}
			}

			// The SQL translation, where one exists, must agree across
			// both minisql execution paths too.
			sql, err := sqlgen.TranslateSQL(e)
			if err != nil {
				continue
			}
			q, err := minisql.Parse(sql)
			if err != nil {
				t.Errorf("figure %d: minisql.Parse(%q): %v", n, sql, err)
				continue
			}
			swant, swerr := minisql.ExecInterpreted(q, tab)
			sgot, sgerr := minisql.Exec(q, tab)
			if (swerr == nil) != (sgerr == nil) {
				t.Errorf("figure %d %s: SQL error divergence: interpreter=%v plan=%v", n, sql, swerr, sgerr)
				continue
			}
			if swerr != nil {
				continue
			}
			assertRowsEqual(t, n, sql, swant, sgot)
		}
	}
}

func assertRowsEqual(t *testing.T, fig int, sql string, want, got *minisql.Rows) {
	t.Helper()
	if len(want.Data) != len(got.Data) || len(want.Src) != len(got.Src) {
		t.Errorf("figure %d %s: shape %dx%d, want %dx%d", fig, sql, len(got.Data), len(got.Cols), len(want.Data), len(want.Cols))
		return
	}
	for i := range want.Data {
		for j := range want.Data[i] {
			if !want.Data[i][j].Equal(got.Data[i][j]) {
				t.Errorf("figure %d %s: row %d = %v, want %v", fig, sql, i, got.Data[i], want.Data[i])
				return
			}
		}
		if want.Src[i] != got.Src[i] {
			t.Errorf("figure %d %s: src[%d] = %d, want %d", fig, sql, i, got.Src[i], want.Src[i])
			return
		}
	}
}

// TestTable10StillEquivalent re-checks the operator-by-operator
// DCS-vs-SQL equivalence of Table 10 now that both executors run on
// the shared plan core.
func TestTable10StillEquivalent(t *testing.T) {
	for _, row := range RunTable10() {
		if !row.Equivalent {
			t.Errorf("operator %q (%s) no longer SQL-equivalent", row.Operator, row.Query)
		}
	}
}
