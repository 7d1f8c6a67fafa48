package minisql

import (
	"strings"
	"testing"

	"nlexplain/internal/sqlast"
	"nlexplain/internal/table"
)

func olympics(t testing.TB) *table.Table {
	t.Helper()
	return table.MustNew("T",
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

func run(t testing.TB, tab *table.Table, src string) *Rows {
	t.Helper()
	r, err := Run(src, tab)
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return r
}

func firstColStrings(r *Rows) []string {
	var out []string
	for _, v := range r.FirstColumn() {
		out = append(out, v.String())
	}
	return out
}

func wantCol(t testing.TB, r *Rows, want ...string) {
	t.Helper()
	got := firstColStrings(r)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSelectStar(t *testing.T) {
	r := run(t, olympics(t), "SELECT * FROM T")
	if len(r.Data) != 6 || len(r.Cols) != 3 {
		t.Fatalf("dims = %dx%d", len(r.Data), len(r.Cols))
	}
	if rows := r.SourceRows(); len(rows) != 6 || rows[0] != 0 {
		t.Errorf("SourceRows = %v", rows)
	}
}

func TestWhereEquality(t *testing.T) {
	r := run(t, olympics(t), "SELECT * FROM T WHERE Country = 'Greece'")
	if rows := r.SourceRows(); len(rows) != 2 || rows[0] != 0 || rows[1] != 2 {
		t.Errorf("SourceRows = %v", rows)
	}
}

func TestWhereEqualityCaseInsensitive(t *testing.T) {
	r := run(t, olympics(t), "SELECT * FROM T WHERE Country = 'greece'")
	if len(r.Data) != 2 {
		t.Errorf("rows = %d, want 2 (entity equality is case-insensitive)", len(r.Data))
	}
}

func TestProjection(t *testing.T) {
	r := run(t, olympics(t), "SELECT Year FROM T WHERE City = 'Athens'")
	wantCol(t, r, "1896", "2004")
}

func TestDistinct(t *testing.T) {
	r := run(t, olympics(t), "SELECT DISTINCT City FROM T WHERE Country = 'Greece'")
	wantCol(t, r, "Athens")
}

func TestInSubquery(t *testing.T) {
	// Example 3.2 of the paper: SELECT City ... WHERE Year = (SELECT MIN(Year) ...).
	r := run(t, olympics(t), `
		SELECT City FROM T
		WHERE Index IN (
			SELECT Index FROM T
			WHERE Year = ( SELECT MIN(Year) FROM T ) )`)
	wantCol(t, r, "Athens")
}

func TestIndexArithmetic(t *testing.T) {
	// Values in preceding records: Index IN (SELECT Index - 1 ...).
	r := run(t, olympics(t), `
		SELECT City FROM T
		WHERE Index IN ( SELECT Index - 1 FROM T WHERE City = 'London' )`)
	wantCol(t, r, "Beijing")
	r = run(t, olympics(t), `
		SELECT City FROM T
		WHERE Index IN ( SELECT Index + 1 FROM T WHERE City = 'Beijing' )`)
	wantCol(t, r, "London")
}

func TestAggregates(t *testing.T) {
	tab := olympics(t)
	cases := []struct {
		src  string
		want string
	}{
		{"SELECT COUNT(*) FROM T", "6"},
		{"SELECT COUNT(Index) FROM T WHERE City = 'Athens'", "2"},
		{"SELECT COUNT(DISTINCT City) FROM T", "5"},
		{"SELECT MIN(Year) FROM T", "1896"},
		{"SELECT MAX(Year) FROM T WHERE Country = 'Greece'", "2004"},
		{"SELECT SUM(Year) FROM T WHERE Country = 'Greece'", "3900"},
		{"SELECT AVG(Year) FROM T WHERE Country = 'Greece'", "1950"},
	}
	for _, c := range cases {
		r := run(t, tab, c.src)
		wantCol(t, r, c.want)
	}
}

func TestAggregateErrors(t *testing.T) {
	tab := olympics(t)
	bad := []string{
		"SELECT MIN(Year) FROM T WHERE Country = 'Atlantis'", // empty
		"SELECT SUM(City) FROM T",                            // text
		"SELECT * FROM T GROUP BY City",                      // * in aggregate
	}
	for _, src := range bad {
		if _, err := Run(src, tab); err == nil {
			t.Errorf("Run(%q) should fail", src)
		}
	}
}

func TestUnion(t *testing.T) {
	r := run(t, olympics(t), `
		SELECT City FROM T WHERE Country = 'Greece'
		UNION
		SELECT City FROM T WHERE Country = 'China'`)
	wantCol(t, r, "Athens", "Beijing") // UNION deduplicates the two Athens rows
}

func TestUnionIncompatible(t *testing.T) {
	_, err := Run("SELECT City FROM T UNION SELECT Year, City FROM T", olympics(t))
	if err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Errorf("err = %v", err)
	}
}

func TestScalarDifference(t *testing.T) {
	// Difference of value occurrences (Table 10, row 7).
	r := run(t, olympics(t), `
		( SELECT COUNT(Index) FROM T WHERE City = 'Athens' )
		- ( SELECT COUNT(Index) FROM T WHERE City = 'London' )`)
	wantCol(t, r, "1")
}

func TestGroupByOrderLimit(t *testing.T) {
	// Value with most appearances (Table 10, row 12).
	r := run(t, olympics(t), `
		SELECT City FROM T
		GROUP BY City
		ORDER BY COUNT(Index) DESC
		LIMIT 1`)
	wantCol(t, r, "Athens")
}

func TestOrderByPlain(t *testing.T) {
	r := run(t, olympics(t), "SELECT City FROM T ORDER BY Year DESC LIMIT 2")
	wantCol(t, r, "Rio de Janeiro", "London")
	r = run(t, olympics(t), "SELECT City FROM T ORDER BY Year ASC LIMIT 1")
	wantCol(t, r, "Athens")
}

func TestWhereAndOrNot(t *testing.T) {
	r := run(t, olympics(t), "SELECT Year FROM T WHERE Country = 'Greece' AND City = 'Athens'")
	wantCol(t, r, "1896", "2004")
	r = run(t, olympics(t), "SELECT Year FROM T WHERE Country = 'UK' OR Country = 'China'")
	wantCol(t, r, "2008", "2012")
	r = run(t, olympics(t), "SELECT COUNT(*) FROM T WHERE NOT (Country = 'Greece')")
	wantCol(t, r, "4")
}

func TestComparisonTyping(t *testing.T) {
	// Range comparisons never match text cells (same rule as lambda DCS).
	r := run(t, olympics(t), "SELECT COUNT(*) FROM T WHERE City > 4")
	wantCol(t, r, "0")
	r = run(t, olympics(t), "SELECT COUNT(*) FROM T WHERE Year > 2004")
	wantCol(t, r, "3")
	r = run(t, olympics(t), "SELECT COUNT(*) FROM T WHERE Year != 2004")
	wantCol(t, r, "5")
}

func TestQuotedIdentifier(t *testing.T) {
	tab := table.MustNew("T",
		[]string{"Year", "Open Cup"},
		[][]string{{"2004", "4th Round"}, {"2005", "4th Round"}, {"2006", "3rd Round"}})
	r := run(t, tab, `SELECT Year FROM T WHERE "Open Cup" = '4th Round'`)
	wantCol(t, r, "2004", "2005")
}

func TestStringEscaping(t *testing.T) {
	tab := table.MustNew("T", []string{"Name"}, [][]string{{"O'Brien"}, {"Smith"}})
	r := run(t, tab, "SELECT COUNT(*) FROM T WHERE Name = 'O''Brien'")
	wantCol(t, r, "1")
}

// TestSourceRowsMixedComputed covers the -1 computed-row sentinel on a
// result mixing source-backed and computed rows: a UNION of a plain
// selection with an aggregate keeps the selection's record indices and
// marks the aggregate row computed, and SourceRows must skip only the
// sentinel rows.
func TestSourceRowsMixedComputed(t *testing.T) {
	tab := table.MustNew("nums",
		[]string{"Label", "N"},
		[][]string{
			{"a", "3"},
			{"b", "1896"},
			{"c", "3"},
		})
	r, err := Run("SELECT N FROM T WHERE Label = 'b' UNION SELECT COUNT(*) FROM T", tab)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Data) != 2 {
		t.Fatalf("rows = %v", r.Data)
	}
	if r.Src[0] != 1 || r.Src[1] != -1 {
		t.Fatalf("Src = %v, want [1 -1] (source row then computed sentinel)", r.Src)
	}
	rows := r.SourceRows()
	if len(rows) != 1 || rows[0] != 1 {
		t.Fatalf("SourceRows = %v, want [1]", rows)
	}
}

func TestScalarSubqueryShapeError(t *testing.T) {
	_, err := Run("SELECT City FROM T WHERE Year = (SELECT Year FROM T)", olympics(t))
	if err == nil || !strings.Contains(err.Error(), "scalar subquery") {
		t.Errorf("err = %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM T",
		"SELECT * FROM",
		"SELECT * FROM T WHERE",
		"SELECT * FROM T LIMIT x",
		"SELECT * FROM T GROUP City",
		"FOO * FROM T",
		"SELECT * FROM T trailing",
		"SELECT * FROM T WHERE a !",
		"SELECT * FROM T WHERE Name = 'unterminated",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	srcs := []string{
		"SELECT * FROM T WHERE Country = 'Greece'",
		"SELECT DISTINCT City FROM T WHERE Year > 2000 AND Year <= 2012",
		"SELECT City FROM T WHERE Index IN (SELECT Index - 1 FROM T WHERE City = 'London')",
		"SELECT COUNT(DISTINCT City) FROM T",
		"SELECT City FROM T GROUP BY City ORDER BY COUNT(Index) DESC LIMIT 1",
		"(SELECT COUNT(Index) FROM T WHERE City = 'Athens') - (SELECT COUNT(Index) FROM T WHERE City = 'London')",
		"SELECT City FROM T WHERE Country = 'Greece' UNION SELECT City FROM T WHERE Country = 'China'",
		`SELECT Year FROM T WHERE "Open Cup" = '4th Round'`,
	}
	tab := olympics(t)
	for _, src := range srcs {
		q1, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		printed := sqlast.Format(q1)
		q2, err := Parse(printed)
		if err != nil {
			t.Errorf("re-Parse(%q): %v", printed, err)
			continue
		}
		if sqlast.Format(q2) != printed {
			t.Errorf("format unstable: %q -> %q", printed, sqlast.Format(q2))
		}
		// Both must execute identically when executable on this table.
		r1, err1 := Exec(q1, tab)
		r2, err2 := Exec(q2, tab)
		if (err1 == nil) != (err2 == nil) {
			t.Errorf("exec divergence for %q: %v vs %v", src, err1, err2)
			continue
		}
		if err1 == nil && len(r1.Data) != len(r2.Data) {
			t.Errorf("row count divergence for %q", src)
		}
	}
}
