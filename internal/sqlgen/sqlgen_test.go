package sqlgen

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"nlexplain/internal/dcs"
	"nlexplain/internal/minisql"
	"nlexplain/internal/qrand"
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

// equivalent asserts that the lambda DCS executor and the SQL engine
// agree on the query. Per the package doc, a DCS empty set paired with a
// SQL "over an empty set" aggregate error counts as agreement (real SQL
// would produce NULL there; minisql has no NULL).
func equivalent(t *testing.T, tab *table.Table, e dcs.Expr) {
	t.Helper()
	q, err := Translate(e)
	if err != nil {
		t.Fatalf("Translate(%s): %v", e, err)
	}
	sql := sqlast.Format(q)

	dres, derr := dcs.Execute(e, tab)
	sres, serr := minisql.Exec(q, tab)

	if derr != nil || serr != nil {
		emptyVsNull := derr == nil && dres.Empty() && serr != nil && strings.Contains(serr.Error(), "empty")
		bothFail := derr != nil && serr != nil
		if !bothFail && !emptyVsNull {
			t.Fatalf("divergent errors for %s\n  sql: %s\n  dcs err: %v\n  sql err: %v", e, sql, derr, serr)
		}
		return
	}

	switch dres.Type {
	case dcs.RecordsType:
		got := sres.SourceRows()
		want := dres.Records
		if !equalInts(got, want) {
			t.Fatalf("records mismatch for %s\n  sql: %s\n  dcs: %v\n  sql: %v", e, sql, want, got)
		}
	default:
		got := keySet(sres.FirstColumn())
		want := keySetVals(dres.Values)
		if !equalStrs(got, want) {
			t.Fatalf("values mismatch for %s\n  sql: %s\n  dcs: %v\n  sql: %v", e, sql, want, got)
		}
	}
}

func keySet(vals []table.Value) []string {
	seen := make(map[string]bool)
	var out []string
	for _, v := range vals {
		if k := v.Key(); !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func keySetVals(vals []table.Value) []string { return keySet(vals) }

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalStrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTable10Operators covers every row of Table 10: operator, example
// query, and the lambda DCS / SQL equivalence on a concrete table.
func TestTable10Operators(t *testing.T) {
	tab := olympics(t)
	queries := []string{
		// Row 1: Column Records — C.v.
		"City.Athens",
		// Row 2: Column Values — R[C].records.
		"R[Year].City.Athens",
		// Row 3: Values in Preceding Records.
		"R[Year].Prev.City.Athens",
		// Row 4: Values in Following Records.
		"R[Year].R[Prev].City.Athens",
		// Row 5: Aggregation on Values.
		"sum(R[Year].City.Athens)",
		"count(R[Year].City.Athens)",
		"min(R[Year].City.Athens)",
		"max(R[Year].City.Athens)",
		"avg(R[Year].City.Athens)",
		// Row 6: Difference of Values.
		"sub(R[Year].City.London, R[Year].City.Beijing)",
		// Row 7: Difference of Value Occurrences.
		"sub(count(City.Athens), count(City.London))",
		// Row 8: Union of Values.
		"(R[City].Country.China or R[City].Country.Greece)",
		// Row 9: Intersection of Records.
		"(City.London u Country.UK)",
		// Row 10: Records with Highest Value.
		"argmax(Record, Year)",
		"argmin(Record, Year)",
		// Row 11: Value in Record with Highest Index.
		"R[Year].argmax(City.Athens, Index)",
		"R[Year].argmin(City.Athens, Index)",
		// Row 12: Value with Most Appearances.
		"argmax((Athens or London), R[λx.count(City.x)])",
		"argmax(Values[City], R[λx.count(City.x)])",
		// Row 13: Comparing Values.
		"argmax((London or Beijing), R[λx.R[Year].City.x])",
		"argmin((London or Beijing), R[λx.R[Year].City.x])",
	}
	for _, src := range queries {
		src := src
		t.Run(src, func(t *testing.T) {
			equivalent(t, tab, dcs.MustParse(src))
		})
	}
}

func TestTranslationText(t *testing.T) {
	// Example 3.2 shape: the SQL for R[City].argmin(Record, Year).
	sql, err := TranslateSQL(dcs.MustParse("R[City].argmin(Record, Year)"))
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"SELECT DISTINCT City FROM T", "MIN(Year)"} {
		if !strings.Contains(sql, frag) {
			t.Errorf("SQL %q missing fragment %q", sql, frag)
		}
	}
}

func TestTranslateJoinLiteral(t *testing.T) {
	sql, err := TranslateSQL(dcs.MustParse("City.Athens"))
	if err != nil {
		t.Fatal(err)
	}
	if sql != "SELECT * FROM T WHERE City = 'Athens'" {
		t.Errorf("sql = %q", sql)
	}
}

func TestTranslateComparison(t *testing.T) {
	sql, err := TranslateSQL(dcs.MustParse("Year>2004"))
	if err != nil {
		t.Fatal(err)
	}
	if sql != "SELECT * FROM T WHERE Year > 2004" {
		t.Errorf("sql = %q", sql)
	}
	equivalent(t, olympics(t), dcs.MustParse("Year>2004"))
}

func TestTranslateUnionOfLiterals(t *testing.T) {
	sql, err := TranslateSQL(dcs.MustParse("Country.(Greece or China)"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "Country = 'Greece' OR Country = 'China'") {
		t.Errorf("sql = %q", sql)
	}
	equivalent(t, olympics(t), dcs.MustParse("Country.(Greece or China)"))
}

func TestTranslateNestedJoin(t *testing.T) {
	// Join whose argument is itself table-derived: an IN subquery.
	e := dcs.MustParse("Year.R[Year].City.Athens")
	sql, err := TranslateSQL(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "Year IN (SELECT Year FROM T WHERE City = 'Athens')") {
		t.Errorf("sql = %q", sql)
	}
	equivalent(t, olympics(t), e)
}

func TestTranslateOutsideFragment(t *testing.T) {
	// Aggregate over a union of literals is outside the Table 10 fragment.
	e := dcs.MustParse("max((Athens or London))")
	if _, err := Translate(e); err == nil {
		t.Fatal("expected translation error")
	} else if _, ok := err.(*TranslateError); !ok {
		t.Errorf("error type = %T", err)
	}
}

func TestQuotedColumn(t *testing.T) {
	tab := table.MustNew("T",
		[]string{"Year", "Open Cup"},
		[][]string{{"2004", "4th Round"}, {"2005", "4th Round"}, {"2006", "3rd Round"}})
	e := dcs.MustParse(`R[Year]."Open Cup"."4th Round"`)
	sql, err := TranslateSQL(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, `"Open Cup" = '4th Round'`) {
		t.Errorf("sql = %q", sql)
	}
	equivalent(t, tab, e)
}

// TestRandomizedEquivalence is the load-bearing property test: on random
// tables and random well-typed queries, the lambda DCS executor and the
// SQL engine running the generated translation must agree.
func TestRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20190412))
	trials := 2500
	if testing.Short() {
		trials = 300
	}
	translated := 0
	for i := 0; i < trials; i++ {
		tab := qrand.Table(rng)
		e := qrand.Query(rng, tab, 1+rng.Intn(3))
		if _, err := Translate(e); err != nil {
			// Outside the SQL fragment (e.g. aggregate over union):
			// legal lambda DCS, untranslatable; skip.
			continue
		}
		translated++
		equivalent(t, tab, e)
	}
	if translated < trials/2 {
		t.Errorf("only %d/%d random queries were translatable; generator too narrow", translated, trials)
	}
}

// TestTranslateSQLBounded: argmax over records prints its operand twice,
// so n of them nested take MAX(Year) 2^n-1 times. At 10 levels the
// SQL is Format's whole text and runs on minisql; at 60 TranslateSQL
// stops at maxSQL bytes and refuses, where printing it all would take
// exabytes.
func TestTranslateSQLBounded(t *testing.T) {
	argmaxes := func(n int) dcs.Expr {
		return dcs.MustParse(strings.Repeat("argmax(", n) + "Record" + strings.Repeat(", Year)", n))
	}
	e := argmaxes(10)
	sql, err := TranslateSQL(e)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := Translate(e)
	if n := strings.Count(sql, "MAX(Year)"); sql != sqlast.Format(q) || n != 1<<10-1 {
		t.Errorf("10 argmaxes: %d bytes of SQL taking MAX(Year) %d times, want Format's text taking it 2^10-1 times", len(sql), n)
	}
	equivalent(t, olympics(t), e)

	_, err = TranslateSQL(argmaxes(60))
	var te *TranslateError
	if !errors.As(err, &te) || te.Msg != "the SQL runs past 1048576 bytes" {
		t.Errorf("60 argmaxes: err = %v, want a TranslateError past maxSQL", err)
	}
	if s, ok := sqlast.FormatWithin(q, 1000); ok || len(s) <= 1000 || len(s) > 2000 {
		t.Errorf("FormatWithin(10 argmaxes, 1000) = %d bytes, %v; want it stopped just past 1000", len(s), ok)
	}
}
