package dcs_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	. "nlexplain/internal/dcs"
	"nlexplain/internal/oracle"
	"nlexplain/internal/plan"
	"nlexplain/internal/table"
)

// mixedRangeTable has 70 000 rows — three morsels — and a column for
// each way a table can store the typed reading of its cells:
//
//	Mixed     numbers with text, date and empty cells, no NaN: ranges
//	          read the sorted index of the numeric vector
//	MixedNaN  the same plus one "nan" cell, in the second morsel: ranges
//	          scan the numeric vector under zone verdicts
//	Text      text only: no cell has a numeric reading
//	Num       numbers only, with ties at both ends
func mixedRangeTable() *table.Table {
	rng := rand.New(rand.NewSource(34))
	words := []string{"n/a", "Athens", "withdrawn", "4th Round"}
	mixed := func(i int) string {
		switch i % 97 {
		case 3:
			return words[rng.Intn(len(words))]
		case 41:
			return "2004-08-" + strconv.Itoa(10+rng.Intn(19))
		case 77:
			return ""
		}
		if i%5 == 0 {
			return strconv.FormatFloat(rng.Float64()*1000-100, 'f', 2, 64)
		}
		return strconv.Itoa(rng.Intn(1000) - 100)
	}
	rows := make([][]string, 70_000)
	for i := range rows {
		withNaN := mixed(i)
		if i == 40_000 {
			withNaN = "nan"
		}
		rows[i] = []string{
			mixed(i),
			withNaN,
			words[rng.Intn(len(words))] + strconv.Itoa(rng.Intn(50)),
			strconv.Itoa(rng.Intn(1000)),
		}
	}
	return table.MustNew("mixed", []string{"Mixed", "MixedNaN", "Text", "Num"}, rows)
}

// TestRangeOverMixedColumns holds range, equality and superlative
// queries over every storage shape of a column's typed readings to the
// reference interpreter: against a number literal, a NaN literal, a
// date literal and a number the column stores (so that ties sit on the
// bound), in every execution mode, with the sorted numeric index built before
// the run and without it, traced and answer-only. Denotations, witness
// cells and error texts must equal oracle.Execute's. qrand's tables
// hold none of these cells.
func TestRangeOverMixedColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("70 000-row table")
	}
	t.Parallel()
	tab := mixedRangeTable()
	num, nan, date := table.NumberValue(500), table.ParseValue("nan"), table.ParseValue("2004-08-15")
	var cases []Expr
	for c, col := range tab.Columns() {
		// The text-only column stores no number; it takes Mixed's.
		stored := tab.Value(0, 0)
		if v := tab.Value(0, c); v.IsNumeric() {
			stored = v
		}
		for _, lit := range []table.Value{num, nan, date, stored} {
			for _, op := range []CmpOp{Lt, Le, Gt, Ge, Ne} {
				cases = append(cases, &Compare{Column: col, Op: op, V: lit})
			}
			cases = append(cases, &Join{Column: col, Arg: &ValueLit{V: lit}})
		}
		cases = append(cases,
			&ArgRecords{Max: true, Records: &AllRecords{}, Column: col},
			&ArgRecords{Max: false, Records: &AllRecords{}, Column: col})
	}
	want := make([]*Result, len(cases))
	werr := make([]error, len(cases))
	for i, e := range cases {
		want[i], werr[i] = oracle.Execute(e, tab)
	}
	for _, prebuilt := range []bool{false, true} {
		tab.DropDerivedIndexes()
		if prebuilt {
			for c := range tab.NumCols() {
				tab.NumericSortedRows(c)
			}
		}
		for i, e := range cases {
			for _, mode := range execModes {
				for _, tr := range []plan.Tracer{plan.Capture{}, plan.Noop{}} {
					if !prebuilt {
						tab.DropDerivedIndexes()
					}
					_, traced := tr.(plan.Capture)
					where := fmt.Sprintf("%s (%s, index prebuilt %v, traced %v)", e, mode.name, prebuilt, traced)
					got, gerr := ExecuteIn(mode.x, e, tab, tr)
					if (werr[i] == nil) != (gerr == nil) {
						t.Fatalf("%s: error divergence: reference=%v plan=%v", where, werr[i], gerr)
					}
					if werr[i] != nil {
						if gerr.Error() != werr[i].Error() {
							t.Fatalf("%s: error text diverged:\nreference: %v\nplan:      %v", where, werr[i], gerr)
						}
						continue
					}
					if err := sameDenotation(want[i], got, traced); err != "" {
						t.Fatalf("%s: %s", where, err)
					}
				}
			}
		}
	}
}

// sameDenotation is assertSameResult without the answer key, which
// sorts the rendering of every record and would dominate a 70 000-row
// comparison: type, aggregate, records, values and, when cells is set,
// witness cells must be equal. It returns what differs, or "".
func sameDenotation(want, got *Result, cells bool) string {
	switch {
	case want.Type != got.Type:
		return fmt.Sprintf("type = %v, want %v", got.Type, want.Type)
	case want.Aggr != got.Aggr:
		return fmt.Sprintf("aggr = %q, want %q", got.Aggr, want.Aggr)
	case !slices.Equal(want.Records, got.Records):
		return fmt.Sprintf("%d records, want %d (or they differ)", len(got.Records), len(want.Records))
	case !slices.EqualFunc(want.Values, got.Values, sameValue):
		return fmt.Sprintf("values = %v, want %v", got.Values, want.Values)
	case cells && !slices.Equal(levelCells(want.Cells), levelCells(got.Cells)):
		return fmt.Sprintf("%d cells, want %d (or they differ)", got.Cells.Len(), want.Cells.Len())
	}
	return ""
}

// sameValue is value equality with NaN equal to itself.
func sameValue(w, g table.Value) bool {
	if w.Kind == table.Number && g.Kind == table.Number && math.IsNaN(w.Num) && math.IsNaN(g.Num) {
		return true
	}
	return w.Kind == g.Kind && w.Equal(g)
}
