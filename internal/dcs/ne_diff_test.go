package dcs_test

import (
	"math/rand"
	"strconv"
	"testing"

	. "nlexplain/internal/dcs"
	"nlexplain/internal/oracle"
	"nlexplain/internal/plan"
	"nlexplain/internal/table"
)

// neCases are C!=v, and its count, for every column of tab and literal
// of lits.
func neCases(tab *table.Table, lits []table.Value) []Expr {
	var cases []Expr
	for _, col := range tab.Columns() {
		for _, v := range lits {
			ne := &Compare{Column: col, Op: Ne, V: v}
			cases = append(cases, ne, &Aggregate{Fn: Count, Arg: ne})
		}
	}
	return cases
}

// assertNeMatchesReference runs every case serial, forked and
// zone-forced, traced and answer-only, against the reference.
func assertNeMatchesReference(t *testing.T, tab *table.Table, cases []Expr) {
	t.Helper()
	for _, e := range cases {
		want, werr := oracle.Execute(e, tab)
		if werr != nil {
			t.Fatalf("%s: reference fails: %v", e, werr)
		}
		for _, mode := range execModes {
			for _, tr := range []plan.Tracer{plan.Capture{}, plan.Noop{}} {
				_, traced := tr.(plan.Capture)
				got, err := ExecuteIn(mode.x, e, tab, tr)
				if err != nil {
					t.Fatalf("%s (%s, traced %v): %v", e, mode.name, traced, err)
				}
				if diff := sameDenotation(want, got, traced); diff != "" {
					t.Fatalf("%s (%s, traced %v): %s", e, mode.name, traced, diff)
				}
			}
		}
	}
}

// TestPlanDifferentialNe holds entity inequality, a filter over the
// column's key codes that drops the code of v, to the reference: for a
// v no cell shares, a v that is NaN or spells "nan", a v whose key has
// two spellings in the column (Athens / athens), and a v that is a
// spelling but not its key ("1.50", whose key is 1.5).
func TestPlanDifferentialNe(t *testing.T) {
	t.Parallel()
	tab := table.MustNew("ne", []string{"City", "N", "Mixed"}, [][]string{
		{"Athens", "1", "NaN"},
		{"athens", "nan", "x"},
		{"Paris", "NaN", "Athens"},
		{"ATHENS", "2", "1.50"},
		{"rome", "", "nan"},
		{"Paris", "1.50", "1.5"},
	})
	lits := []table.Value{
		table.ParseValue("Atlantis"), table.NumberValue(7),
		table.ParseValue("NaN"), table.ParseValue("nan"), table.StringValue("NaN"), table.StringValue("nan"),
		table.ParseValue("Athens"), table.StringValue("athens"), table.StringValue("ATHENS"),
		table.StringValue("1.50"), table.NumberValue(1.5), table.StringValue(""),
	}
	assertNeMatchesReference(t, tab, neCases(tab, lits))
}

// TestPlanDifferentialNeBigTable holds count(Games!=x) to the reference
// on the scan fixture's shape, 131072 records (four morsels), with x a
// value of the column and a value of none.
func TestPlanDifferentialNeBigTable(t *testing.T) {
	if testing.Short() {
		t.Skip("131072-row table")
	}
	t.Parallel()
	rng := rand.New(rand.NewSource(54))
	rows := make([][]string, 131072)
	for i := range rows {
		rows[i] = []string{strconv.Itoa(i), strconv.Itoa(rng.Intn(1000))}
	}
	rows[len(rows)-1][0] = "NaN"
	tab := table.MustNew("big", []string{"Tick", "Games"}, rows)
	var cases []Expr
	for _, x := range []string{rows[7][1], "5000"} {
		cases = append(cases, &Aggregate{Fn: Count, Arg: &Compare{Column: "Games", Op: Ne, V: table.ParseValue(x)}})
	}
	assertNeMatchesReference(t, tab, cases)
}
