package minisql

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"nlexplain/internal/table"
)

// golden is one statement's result spelled out: column labels, each
// cell as its Value.String() (its kind is the kind ParseValue gives that
// text), and each row's source record or the computed-row sentinel -1.
// A statement with err set must fail with exactly that text.
type golden struct {
	stmt string
	cols []string
	data [][]string
	src  []int
	err  string
}

// corpusGolden covers every statement shape the executor supports on
// the Figure 1 table: filters (plain and subquery predicates),
// projections, aggregates, grouping, ordering, DISTINCT, LIMIT, UNION and
// scalar difference.
var corpusGolden = []golden{
	{stmt: "SELECT * FROM T", cols: []string{"Year", "Country", "City"},
		data: [][]string{{"1896", "Greece", "Athens"}, {"1900", "France", "Paris"}, {"2004", "Greece", "Athens"},
			{"2008", "China", "Beijing"}, {"2012", "UK", "London"}, {"2016", "Brazil", "Rio de Janeiro"}},
		src: []int{0, 1, 2, 3, 4, 5}},
	{stmt: "SELECT City FROM T", cols: []string{"City"},
		data: [][]string{{"Athens"}, {"Paris"}, {"Athens"}, {"Beijing"}, {"London"}, {"Rio de Janeiro"}},
		src:  []int{0, 1, 2, 3, 4, 5}},
	{stmt: "SELECT Year, City FROM T", cols: []string{"Year", "City"},
		data: [][]string{{"1896", "Athens"}, {"1900", "Paris"}, {"2004", "Athens"},
			{"2008", "Beijing"}, {"2012", "London"}, {"2016", "Rio de Janeiro"}},
		src: []int{0, 1, 2, 3, 4, 5}},
	{stmt: "SELECT City FROM T WHERE Country = 'Greece'", cols: []string{"City"},
		data: [][]string{{"Athens"}, {"Athens"}}, src: []int{0, 2}},
	{stmt: "SELECT City FROM T WHERE Country = 'Nowhere'", cols: []string{"City"}},
	{stmt: "SELECT City FROM T WHERE Year > 2000", cols: []string{"City"},
		data: [][]string{{"Athens"}, {"Beijing"}, {"London"}, {"Rio de Janeiro"}}, src: []int{2, 3, 4, 5}},
	{stmt: "SELECT City FROM T WHERE Year >= 2004 AND Country != 'China'", cols: []string{"City"},
		data: [][]string{{"Athens"}, {"London"}, {"Rio de Janeiro"}}, src: []int{2, 4, 5}},
	{stmt: "SELECT City FROM T WHERE Country = 'Greece' OR Country = 'UK'", cols: []string{"City"},
		data: [][]string{{"Athens"}, {"Athens"}, {"London"}}, src: []int{0, 2, 4}},
	{stmt: "SELECT City FROM T WHERE NOT (Country = 'Greece')", cols: []string{"City"},
		data: [][]string{{"Paris"}, {"Beijing"}, {"London"}, {"Rio de Janeiro"}}, src: []int{1, 3, 4, 5}},
	{stmt: "SELECT City FROM T WHERE 1900 < Year", cols: []string{"City"},
		data: [][]string{{"Athens"}, {"Beijing"}, {"London"}, {"Rio de Janeiro"}}, src: []int{2, 3, 4, 5}},
	{stmt: "SELECT DISTINCT Country FROM T", cols: []string{"Country"},
		data: [][]string{{"Greece"}, {"France"}, {"China"}, {"UK"}, {"Brazil"}}, src: []int{0, 1, 3, 4, 5}},
	{stmt: "SELECT DISTINCT City FROM T WHERE Country = 'Greece'", cols: []string{"City"},
		data: [][]string{{"Athens"}}, src: []int{0}},
	{stmt: "SELECT City FROM T ORDER BY Year DESC", cols: []string{"City"},
		data: [][]string{{"Rio de Janeiro"}, {"London"}, {"Beijing"}, {"Athens"}, {"Paris"}, {"Athens"}},
		src:  []int{5, 4, 3, 2, 1, 0}},
	{stmt: "SELECT City FROM T ORDER BY Year DESC LIMIT 1", cols: []string{"City"},
		data: [][]string{{"Rio de Janeiro"}}, src: []int{5}},
	{stmt: "SELECT City FROM T ORDER BY Index DESC LIMIT 2", cols: []string{"City"},
		data: [][]string{{"Rio de Janeiro"}, {"London"}}, src: []int{5, 4}},
	{stmt: "SELECT Year FROM T WHERE Index = 0", cols: []string{"Year"},
		data: [][]string{{"1896"}}, src: []int{0}},
	{stmt: "SELECT COUNT(*) FROM T", cols: []string{"COUNT(*)"},
		data: [][]string{{"6"}}, src: []int{-1}},
	{stmt: "SELECT COUNT(*) FROM T WHERE Country = 'Greece'", cols: []string{"COUNT(*)"},
		data: [][]string{{"2"}}, src: []int{-1}},
	{stmt: "SELECT COUNT(DISTINCT Country) FROM T", cols: []string{"COUNT(DISTINCT Country)"},
		data: [][]string{{"5"}}, src: []int{-1}},
	{stmt: "SELECT MAX(Year) FROM T WHERE Country = 'Greece'", cols: []string{"MAX(Year)"},
		data: [][]string{{"2004"}}, src: []int{-1}},
	{stmt: "SELECT MIN(Year), MAX(Year) FROM T", cols: []string{"MIN(Year)", "MAX(Year)"},
		data: [][]string{{"1896", "2016"}}, src: []int{-1}},
	{stmt: "SELECT SUM(Year) FROM T WHERE City = 'Athens'", cols: []string{"SUM(Year)"},
		data: [][]string{{"3900"}}, src: []int{-1}},
	{stmt: "SELECT AVG(Year) FROM T WHERE City = 'Athens'", cols: []string{"AVG(Year)"},
		data: [][]string{{"1950"}}, src: []int{-1}},
	{stmt: "SELECT Country FROM T GROUP BY Country", cols: []string{"Country"},
		data: [][]string{{"Greece"}, {"France"}, {"China"}, {"UK"}, {"Brazil"}}, src: []int{-1, -1, -1, -1, -1}},
	{stmt: "SELECT Country, COUNT(*) FROM T GROUP BY Country", cols: []string{"Country", "COUNT(*)"},
		data: [][]string{{"Greece", "2"}, {"France", "1"}, {"China", "1"}, {"UK", "1"}, {"Brazil", "1"}},
		src:  []int{-1, -1, -1, -1, -1}},
	{stmt: "SELECT Country FROM T GROUP BY Country ORDER BY COUNT(*) DESC LIMIT 1", cols: []string{"Country"},
		data: [][]string{{"Greece"}}, src: []int{-1}},
	{stmt: "SELECT City FROM T WHERE Year = (SELECT MAX(Year) FROM T)", cols: []string{"City"},
		data: [][]string{{"Rio de Janeiro"}}, src: []int{5}},
	{stmt: "SELECT City FROM T WHERE Year IN (SELECT Year FROM T WHERE Country = 'Greece')", cols: []string{"City"},
		data: [][]string{{"Athens"}, {"Athens"}}, src: []int{0, 2}},
	{stmt: "SELECT City FROM T WHERE Country = 'Greece' UNION SELECT City FROM T WHERE Country = 'UK'", cols: []string{"City"},
		data: [][]string{{"Athens"}, {"London"}}, src: []int{0, 4}},
	{stmt: "SELECT City FROM T UNION SELECT City FROM T", cols: []string{"City"},
		data: [][]string{{"Athens"}, {"Paris"}, {"Beijing"}, {"London"}, {"Rio de Janeiro"}}, src: []int{0, 1, 3, 4, 5}},
	{stmt: "(SELECT COUNT(*) FROM T WHERE City = 'Athens') - (SELECT COUNT(*) FROM T WHERE City = 'London')",
		cols: []string{"diff"}, data: [][]string{{"1"}}, src: []int{-1}},
	{stmt: "SELECT MAX(Year) FROM T WHERE MIN(Year) > 1800",
		err: "sql exec: aggregate MIN outside an aggregate query"},
	// An aggregate over no rows is NULL in a predicate: it matches nothing.
	{stmt: "SELECT City FROM T WHERE (SELECT MAX(Year) FROM T WHERE Country = 'Atlantis') > 2000", cols: []string{"City"}},
}

// errorGolden is the statements the executor rejects while running, on
// the Figure 1 table.
var errorGolden = []golden{
	{stmt: "SELECT MAX(Year) FROM T WHERE Country = 'Atlantis'",
		err: "sql exec: MAX over an empty set: aggregate over an empty set"},
	{stmt: "SELECT SUM(City) FROM T", err: `sql exec: SUM over non-numeric value "Athens"`},
	{stmt: "SELECT City FROM T UNION SELECT Year, City FROM T", err: "sql exec: UNION of incompatible widths 1 and 2"},
	{stmt: "SELECT City FROM T WHERE Year = (SELECT Year FROM T)", err: "sql exec: scalar subquery returned 6x1 result"},
	{stmt: "(SELECT City FROM T WHERE Country = 'UK') - (SELECT COUNT(*) FROM T)",
		err: `sql exec: difference of non-numeric values "London" and "6"`},
}

// nanGolden pins Equal semantics for predicates over a NaN cell (on
// nanTable): Value.Equal is key identity, so a NaN literal matches the
// NaN cell, as the join N.nan does, and != is its complement.
var nanGolden = []golden{
	{stmt: "SELECT Label FROM T WHERE N = 'nan'", cols: []string{"Label"},
		data: [][]string{{"b"}}, src: []int{1}},
	{stmt: "SELECT Label FROM T WHERE N != 'nan'", cols: []string{"Label"},
		data: [][]string{{"a"}, {"c"}}, src: []int{0, 2}},
	{stmt: "SELECT Label FROM T WHERE N != 3", cols: []string{"Label"},
		data: [][]string{{"a"}, {"b"}}, src: []int{0, 1}},
	{stmt: "SELECT Label FROM T WHERE N > 0", cols: []string{"Label"},
		data: [][]string{{"a"}, {"c"}}, src: []int{0, 2}},
	{stmt: "SELECT Label FROM T WHERE N <= 3", cols: []string{"Label"},
		data: [][]string{{"a"}, {"b"}, {"c"}}, src: []int{0, 1, 2}},
}

// seqGolden is narrow (1 % of the rows), point and wide range counts on
// seqTable.
var seqGolden = []golden{
	{stmt: "SELECT COUNT(Index) FROM T WHERE Seq >= 49152 AND Seq <= 50135", cols: []string{"COUNT(Index)"},
		data: [][]string{{"984"}}, src: []int{-1}},
	{stmt: "SELECT COUNT(Index) FROM T WHERE Seq >= 49152 AND Seq <= 49152", cols: []string{"COUNT(Index)"},
		data: [][]string{{"1"}}, src: []int{-1}},
	{stmt: "SELECT COUNT(Index) FROM T WHERE Seq >= 0 AND Seq <= 97321", cols: []string{"COUNT(Index)"},
		data: [][]string{{"97322"}}, src: []int{-1}},
}

// seqTable is three zones of one monotone numeric column.
func seqTable(t testing.TB) *table.Table {
	t.Helper()
	rows := make([][]string, 3*table.ZoneRows)
	for r := range rows {
		rows[r] = []string{strconv.Itoa(r)}
	}
	return table.MustNew("T", []string{"Seq"}, rows)
}

func nanTable() *table.Table {
	return table.MustNew("nums", []string{"Label", "N"}, [][]string{{"a", "1"}, {"b", "nan"}, {"c", "3"}})
}

// checkGolden runs g on tab. It reports with t.Errorf, so goroutines
// may call it.
func checkGolden(t *testing.T, tab *table.Table, g golden) {
	t.Helper()
	r, err := Run(g.stmt, tab)
	if g.err != "" || err != nil {
		if err == nil || err.Error() != g.err {
			t.Errorf("%s: error %v, want %q", g.stmt, err, g.err)
		}
		return
	}
	if got := fmt.Sprint(r.Cols); got != fmt.Sprint(g.cols) {
		t.Errorf("%s: cols %s, want %v", g.stmt, got, g.cols)
	}
	if got := fmt.Sprint(r.Src); got != fmt.Sprint(g.src) {
		t.Errorf("%s: src %s, want %v", g.stmt, got, g.src)
	}
	if !sameCells(r.Data, g.data) {
		t.Errorf("%s: data %v, want %v", g.stmt, r.Data, g.data)
	}
}

func sameCells(got [][]table.Value, want [][]string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j, w := range want[i] {
			if v := got[i][j]; v.String() != w || v.Kind != table.ParseValue(w).Kind {
				return false
			}
		}
	}
	return true
}

// The four tests below keep the names of the plan-path differential
// suite this golden replaced, so each statement's result is tracked
// under the same test across PRs.

// TestSQLPlanDifferential holds every corpus statement to its golden.
func TestSQLPlanDifferential(t *testing.T) {
	tab := olympics(t)
	for _, g := range corpusGolden {
		t.Run(g.stmt, func(t *testing.T) { checkGolden(t, tab, g) })
	}
}

// TestSQLPlanDifferentialErrors holds each runtime failure to its text.
func TestSQLPlanDifferentialErrors(t *testing.T) {
	tab := olympics(t)
	for _, g := range errorGolden {
		checkGolden(t, tab, g)
	}
}

// TestSQLPlanDifferentialNaN holds the NaN statements to their golden.
func TestSQLPlanDifferentialNaN(t *testing.T) {
	tab := nanTable()
	for _, g := range nanGolden {
		checkGolden(t, tab, g)
	}
}

// TestSQLPlanDifferentialParallel holds the golden while executions
// share a table: each statement runs on four goroutines at once, and on
// the zones legs a fifth builds the table's zone maps and sorted numeric
// indexes meanwhile (the derived state DCS queries build lazily on a
// table SQL is reading). Under -race this is the check that nothing the
// executor reads is written by another execution.
func TestSQLPlanDifferentialParallel(t *testing.T) {
	for _, leg := range []struct {
		prefix string
		tab    *table.Table
		cases  []golden
		derive bool
	}{
		{"", olympics(t), corpusGolden, false},
		{"zones/", olympics(t), corpusGolden, true},
		{"zones-seq/", seqTable(t), seqGolden, true},
	} {
		for _, g := range leg.cases {
			t.Run(leg.prefix+g.stmt, func(t *testing.T) {
				var wg sync.WaitGroup
				for range 4 {
					wg.Add(1)
					go func() {
						defer wg.Done()
						checkGolden(t, leg.tab, g)
					}()
				}
				if leg.derive {
					for c := range leg.tab.NumCols() {
						leg.tab.ColumnZones(c)
						leg.tab.NumericSortedRows(c)
					}
				}
				wg.Wait()
			})
		}
	}
}
