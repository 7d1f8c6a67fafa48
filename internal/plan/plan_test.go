package plan

import (
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

func TestRewritePushesEqualityIntoIndexLookup(t *testing.T) {
	n := Optimize(&Filter{
		Input: &Scan{},
		Pred:  &CmpPred{Col: 1, Op: "=", V: lit("Greece")},
	})
	il, ok := n.(*IndexLookup)
	if !ok {
		t.Fatalf("optimized to %T, want *IndexLookup:\n%s", n, Format(n))
	}
	if il.Col != 1 || len(il.Keys) != 1 {
		t.Errorf("IndexLookup = %+v", il)
	}
}

func TestRewriteFusesRangeFilterIntoCompare(t *testing.T) {
	n := Optimize(&Filter{
		Input: &Scan{},
		Pred:  &CmpPred{Col: 0, Op: ">", V: lit("2000")},
	})
	if _, ok := n.(*Compare); !ok {
		t.Fatalf("optimized to %T, want *Compare:\n%s", n, Format(n))
	}
}

func TestRewriteSplitsConjunctionAndPushes(t *testing.T) {
	n := Optimize(&Filter{
		Input: &Scan{},
		Pred: &AndPred{
			L: &CmpPred{Col: 1, Op: "=", V: lit("Greece")},
			R: &FuncPred{Fn: func(int) (bool, error) { return true, nil }},
		},
	})
	f, ok := n.(*Filter)
	if !ok {
		t.Fatalf("optimized to %T, want Filter over IndexLookup:\n%s", n, Format(n))
	}
	if _, ok := f.Input.(*IndexLookup); !ok {
		t.Fatalf("conjunct did not sink into an IndexLookup:\n%s", Format(n))
	}
}

func TestRewriteFoldsConstants(t *testing.T) {
	// Lookup over a folded union of literals becomes a multi-key
	// IndexLookup.
	n := Optimize(&Lookup{Col: 2, Input: &Union{
		L: &Const{Values: []table.Value{lit("Athens")}},
		R: &Const{Values: []table.Value{lit("London")}},
	}})
	il, ok := n.(*IndexLookup)
	if !ok {
		t.Fatalf("optimized to %T, want *IndexLookup:\n%s", n, Format(n))
	}
	if len(il.Keys) != 2 {
		t.Errorf("keys = %v, want 2 literals", il.Keys)
	}

	// count over a literal set folds to a scalar constant.
	c := Optimize(&Aggregate{Fn: "count", Input: &Const{Values: []table.Value{lit("a"), lit("b"), lit("a")}}})
	var v Val
	err := RunInto(&v, c, testTable(t), Noop{})
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != ScalarKind || v.Values[0].Num != 2 || v.Aggr != "count" {
		t.Errorf("folded count = %+v", v)
	}
}

func TestRewriteEliminatesDistinct(t *testing.T) {
	agg := &SQLAggregate{Input: &Scan{}, GroupCol: -1,
		Items: []GroupItem{{Label: "COUNT(*)", Fn: func(rows []int) (table.Value, error) {
			return table.NumberValue(float64(len(rows))), nil
		}}}}
	n := Optimize(&Distinct{Input: agg})
	if _, ok := n.(*SQLAggregate); !ok {
		t.Fatalf("Distinct over a single-row aggregate not eliminated: %T", n)
	}
	// Distinct over Distinct collapses to one.
	proj := &SQLProject{Input: &Scan{}, Items: []ProjItem{{Label: "City", Col: 2}}}
	n = Optimize(&Distinct{Input: &Distinct{Input: proj}})
	d, ok := n.(*Distinct)
	if !ok {
		t.Fatalf("outer node = %T, want *Distinct", n)
	}
	if _, ok := d.Input.(*Distinct); ok {
		t.Fatal("nested Distinct not collapsed")
	}
	// A grouped aggregate's Distinct must survive.
	grouped := &SQLAggregate{Input: &Scan{}, GroupCol: 1, Items: agg.Items}
	if _, ok := Optimize(&Distinct{Input: grouped}).(*Distinct); !ok {
		t.Fatal("Distinct over a grouped aggregate was wrongly eliminated")
	}
}

func TestExecutorComputesCellsOnlyWhenTraced(t *testing.T) {
	tab := testTable(t)
	n := &IndexLookup{Col: 1, Keys: []table.Value{lit("Greece")}}

	var v Val
	err := RunInto(&v, n, tab, Noop{})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Rows) != 2 || v.Rows[0] != 0 || v.Rows[1] != 2 {
		t.Errorf("rows = %v, want [0 2]", v.Rows)
	}
	if v.Cells != nil {
		t.Errorf("untraced execution computed cells: %v", v.Cells)
	}

	err = RunInto(&v, n, tab, Capture{})
	if err != nil {
		t.Fatal(err)
	}
	want := []table.CellRef{{Row: 0, Col: 1}, {Row: 2, Col: 1}}
	if len(v.Cells) != len(want) || v.Cells[0] != want[0] || v.Cells[1] != want[1] {
		t.Errorf("cells = %v, want %v", v.Cells, want)
	}
}

// opTracer records every operator boundary, validating the PE
// single-pass contract the provenance CellTracer relies on.
type opTracer struct {
	ops   []string
	cells int
}

func (o *opTracer) Active() bool { return true }
func (o *opTracer) Operator(op string, cells []table.CellRef) {
	o.ops = append(o.ops, op)
	o.cells += len(cells)
}

func TestTracerSeesEveryOperatorBoundary(t *testing.T) {
	tab := testTable(t)
	n := &Aggregate{Fn: "max", Input: &ProjectCol{
		Col:   0,
		Input: &IndexLookup{Col: 1, Keys: []table.Value{lit("Greece")}},
	}}
	tr := &opTracer{}
	var v Val
	err := RunInto(&v, n, tab, tr)
	if err != nil {
		t.Fatal(err)
	}
	if v.Values[0].String() != "2004" {
		t.Errorf("max = %v", v.Values)
	}
	if len(tr.ops) != 3 {
		t.Errorf("operator boundaries = %v, want 3", tr.ops)
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
		var v, scan Val
		err := RunInto(&v, n, tab, Noop{})
		if err != nil {
			t.Fatal(err)
		}
		// Cross-check against a straight scan with an opaque predicate,
		// which neither the index nor the zone maps can shortcut.
		err = RunInto(&scan, &Filter{Input: &Scan{}, Pred: &FuncPred{Fn: func(r int) (bool, error) {
			// "<" and "<=" accept c < 0, ">" and ">=" accept c > 0, and
			// the two-character operators accept equality.
			c := tab.Value(r, 0).Compare(lit("2004"))
			return tab.Value(r, 0).IsNumeric() &&
				(c < 0 && op[0] == '<' || c > 0 && op[0] == '>' || c == 0 && len(op) == 2), nil
		}}}, tab, Noop{})
		if err != nil {
			t.Fatal(err)
		}
		want := scan.Rows
		if len(v.Rows) != len(want) {
			t.Fatalf("%s: rows = %v, want %v", op, v.Rows, want)
		}
		for i := range want {
			if v.Rows[i] != want[i] {
				t.Fatalf("%s: rows = %v, want %v", op, v.Rows, want)
			}
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
	err := RunInto(&v, &Superlative{Input: &Scan{}, Col: 1, Max: true}, tab, Capture{})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Rows) != 2 || v.Rows[0] != 1 || v.Rows[1] != 2 {
		t.Errorf("rows = %v, want the tied records [1 2]", v.Rows)
	}
	if len(v.Cells) != 2 {
		t.Errorf("cells = %v", v.Cells)
	}
}
