package plan

import (
	"slices"
	"testing"

	"nlexplain/internal/table"
)

func testTable(t *testing.T) *table.Table {
	t.Helper()
	return table.MustNew("olympics",
		[]string{"Year", "Country", "City"},
		[][]string{
			{"1896", "Greece", "Athens"},
			{"1900", "France", "Paris"},
			{"2004", "Greece", "Athens"},
			{"2008", "China", "Beijing"},
			{"2012", "UK", "London"},
			{"2016", "Brazil", "Rio de Janeiro"},
		})
}

func lit(s string) table.Value { return table.ParseValue(s) }

// eq is entity equality on column col as dcs compiles it: a Lookup over
// a Const.
func eq(col int, v table.Value) Node {
	return &Lookup{Col: col, Input: &Const{Values: []table.Value{v}}}
}

func TestExecutorComputesCellsOnlyWhenTraced(t *testing.T) {
	tab := testTable(t)
	n := eq(1, lit("Greece"))

	var v Val
	err := RunIntoCtx(nil, nil, &v, n, tab, Noop{})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Rows) != 2 || v.Rows[0] != 0 || v.Rows[1] != 2 {
		t.Errorf("rows = %v, want [0 2]", v.Rows)
	}
	if v.Cells.Len() != 0 {
		t.Errorf("untraced execution computed cells: %v", slices.Collect(v.Cells.All()))
	}

	err = RunIntoCtx(nil, nil, &v, n, tab, Capture{})
	if err != nil {
		t.Fatal(err)
	}
	want := []table.CellRef{{Row: 0, Col: 1}, {Row: 2, Col: 1}}
	if got := slices.Collect(v.Cells.All()); !slices.Equal(got, want) {
		t.Errorf("cells = %v, want %v", got, want)
	}
}

// opTracer records every operator boundary, validating the PE
// single-pass contract the provenance CellTracer relies on.
type opTracer struct {
	ops   []string
	cells int
}

func (o *opTracer) Active() bool { return true }
func (o *opTracer) Operator(op string, cells []table.Span) {
	o.ops = append(o.ops, op)
	for _, sp := range cells {
		o.cells += len(sp.Rows)
	}
}

func TestTracerSeesEveryOperatorBoundary(t *testing.T) {
	tab := testTable(t)
	n := &Aggregate{Fn: "max", Input: &ProjectCol{
		Col:   0,
		Input: eq(1, lit("Greece")),
	}}
	tr := &opTracer{}
	var v Val
	err := RunIntoCtx(nil, nil, &v, n, tab, tr)
	if err != nil {
		t.Fatal(err)
	}
	if v.Values[0].String() != "2004" {
		t.Errorf("max = %v", v.Values)
	}
	if want := []string{"Const", "Lookup", "ProjectCol", "Aggregate"}; !slices.Equal(tr.ops, want) {
		t.Errorf("operator boundaries = %v, want %v", tr.ops, want)
	}
	// Join cells (2) + projection cells (2) + aggregate cells (2,
	// inherited from the projection).
	if tr.cells != 6 {
		t.Errorf("total boundary cells = %d, want 6", tr.cells)
	}
}

func TestCompareUsesIndexAndMatchesScan(t *testing.T) {
	tab := testTable(t)
	for _, op := range []string{"<", "<=", ">", ">="} {
		n := &Compare{Col: 0, Cmp: op, V: lit("2004")}
		var v Val
		err := RunIntoCtx(nil, nil, &v, n, tab, Noop{})
		if err != nil {
			t.Fatal(err)
		}
		// Cross-check against a straight loop over the rows: "<" and "<="
		// accept c < 0, ">" and ">=" accept c > 0, and the two-character
		// operators accept equality.
		var want []int
		for r := range tab.NumRows() {
			c := tab.Value(r, 0).Compare(lit("2004"))
			if tab.Value(r, 0).IsNumeric() &&
				(c < 0 && op[0] == '<' || c > 0 && op[0] == '>' || c == 0 && len(op) == 2) {
				want = append(want, r)
			}
		}
		if !slices.Equal(v.Rows, want) {
			t.Fatalf("%s: rows = %v, want %v", op, v.Rows, want)
		}
	}
}

func TestSuperlativeTies(t *testing.T) {
	tab := table.MustNew("scores",
		[]string{"Name", "Score"},
		[][]string{
			{"a", "5"}, {"b", "9"}, {"c", "9"}, {"d", "1"},
		})
	var v Val
	err := RunIntoCtx(nil, nil, &v, &Superlative{Input: &Scan{}, Col: 1, Max: true}, tab, Capture{})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Rows) != 2 || v.Rows[0] != 1 || v.Rows[1] != 2 {
		t.Errorf("rows = %v, want the tied records [1 2]", v.Rows)
	}
	if v.Cells.Len() != 2 {
		t.Errorf("cells = %v", slices.Collect(v.Cells.All()))
	}
}
