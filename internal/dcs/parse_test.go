package dcs_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	. "nlexplain/internal/dcs"
	"nlexplain/internal/table"
)

func TestParseRoundTrip(t *testing.T) {
	// Every printed form must re-parse to an identical expression.
	srcs := []string{
		"Greece",
		"2004",
		`"New Caledonia"`,
		"Record",
		"Country.Greece",
		"R[Year].Country.Greece",
		"max(R[Year].Country.Greece)",
		"count(City.Athens)",
		"sum(R[Year].City.Athens)",
		"avg(R[Year].City.Athens)",
		"min(R[Year].Country.Greece)",
		"sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)",
		"sub(count(City.Athens), count(City.London))",
		"(City.London u Country.UK)",
		"(Country.Greece or Country.China)",
		"(Athens or London)",
		"Prev.City.London",
		"R[Prev].City.Athens",
		"R[City].Prev.City.London",
		"R[City].R[Prev].City.Athens",
		"argmax(Record, Year)",
		"argmin(Record, Year)",
		"R[City].argmin(Record, Year)",
		"R[Year].argmax(Country.Greece, Index)",
		"R[Year].argmin(Country.Greece, Index)",
		"argmax(Values[City], R[λx.count(City.x)])",
		"argmax((Athens or London), R[λx.count(City.x)])",
		"argmax((London or Beijing), R[λx.R[Year].City.x])",
		"argmin((London or Beijing), R[λx.R[Year].City.x])",
		"Games>4",
		"Games>=5",
		"Games<17",
		"Games<=2",
		"Games!=3",
		"(Games>=5 u Games<17)",
		`R[Year]."Open Cup"."4th Round"`,
		`max(R[Year].League."USL A-League")`,
	}
	for _, src := range srcs {
		e1, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		printed := e1.String()
		e2, err := Parse(printed)
		if err != nil {
			t.Errorf("re-Parse(%q) of %q: %v", printed, src, err)
			continue
		}
		if e2.String() != printed {
			t.Errorf("round trip unstable: %q -> %q -> %q", src, printed, e2.String())
		}
	}
}

func TestParseASCIILambda(t *testing.T) {
	// The ASCII spelling \x is accepted alongside λx.
	e, err := Parse(`argmax((Athens or London), R[\x.count(City.x)])`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if _, ok := e.(*MostFrequent); !ok {
		t.Errorf("got %T, want *MostFrequent", e)
	}
}

func TestParseStructure(t *testing.T) {
	e := MustParse("max(R[Year].Country.Greece)")
	agg, ok := e.(*Aggregate)
	if !ok || agg.Fn != Max {
		t.Fatalf("outer = %T %v", e, e)
	}
	cv, ok := agg.Arg.(*ColumnValues)
	if !ok || cv.Column != "Year" {
		t.Fatalf("middle = %T %v", agg.Arg, agg.Arg)
	}
	j, ok := cv.Records.(*Join)
	if !ok || j.Column != "Country" {
		t.Fatalf("inner = %T %v", cv.Records, cv.Records)
	}
	lit, ok := j.Arg.(*ValueLit)
	if !ok || lit.V.Str != "Greece" {
		t.Fatalf("leaf = %T %v", j.Arg, j.Arg)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"(",
		"max(",
		"max()",
		"sub(a)",
		"sub(a, b",
		"R[Year]",
		"R[Year].",
		"argmax(Record)",
		"Country.Greece extra",
		`"unterminated`,
		"a ! b",
		"argmax(Values[City], Year)",
		"argmin((Athens or London), R[λx.count(City.x)])",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseNumberKinds(t *testing.T) {
	e := MustParse("Year.2004")
	j := e.(*Join)
	lit := j.Arg.(*ValueLit)
	if lit.V.Kind != table.Number || lit.V.Num != 2004 {
		t.Errorf("literal = %+v", lit.V)
	}
	e = MustParse("Games>4.5")
	c := e.(*Compare)
	if c.V.Num != 4.5 {
		t.Errorf("compare literal = %+v", c.V)
	}
	e = MustParse("Temp>-3")
	if e.(*Compare).V.Num != -3 {
		t.Errorf("negative literal = %+v", e.(*Compare).V)
	}
}

func TestParseQuotedDate(t *testing.T) {
	e := MustParse(`Date."June 8, 2013"`)
	lit := e.(*Join).Arg.(*ValueLit)
	if lit.V.Kind != table.Date {
		t.Errorf("quoted date literal kind = %v", lit.V.Kind)
	}
}

func TestCheckRejectsBadTypes(t *testing.T) {
	tab := olympicsTable(t)
	bad := []Expr{
		&Join{Column: "Year", Arg: &AllRecords{}},                                    // join over records
		&ColumnValues{Column: "Year", Records: &ValueLit{V: table.StringValue("x")}}, // reverse join over values
		&Intersect{L: &ValueLit{V: table.StringValue("a")}, R: &AllRecords{}},
		&Union{L: &AllRecords{}, R: &ValueLit{V: table.StringValue("a")}},
		&Aggregate{Fn: Max, Arg: &AllRecords{}}, // max over records
		&Aggregate{Fn: "median", Arg: &ValueLit{V: table.NumberValue(1)}},
		&Sub{L: &AllRecords{}, R: &AllRecords{}},
		&Prev{Records: &ValueLit{V: table.StringValue("a")}},
		&Compare{Column: "Year", Op: "~", V: table.NumberValue(1)},
		&Join{Column: "Nope", Arg: &ValueLit{V: table.StringValue("a")}},
	}
	for _, e := range bad {
		if err := Check(e, tab); err == nil {
			t.Errorf("Check(%s) should fail", e)
		}
	}
}

func TestCheckAcceptsCountOverRecords(t *testing.T) {
	tab := olympicsTable(t)
	e := &Aggregate{Fn: Count, Arg: &AllRecords{}}
	if err := Check(e, tab); err != nil {
		t.Errorf("count over records should be legal: %v", err)
	}
}

func TestColumnsHelper(t *testing.T) {
	e := MustParse("sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)")
	cols := Columns(e)
	if len(cols) != 2 || cols[0] != "Total" || cols[1] != "Nation" {
		t.Errorf("Columns = %v", cols)
	}
}

func TestColumnsCompareValues(t *testing.T) {
	e := MustParse("argmax((London or Beijing), R[λx.R[Year].City.x])")
	cols := Columns(e)
	if len(cols) != 2 || cols[0] != "Year" || cols[1] != "City" {
		t.Errorf("Columns = %v", cols)
	}
}

func TestSubqueriesAndSize(t *testing.T) {
	e := MustParse("max(R[Year].Country.Greece)")
	subs := Subqueries(e)
	if len(subs) != 4 { // max, R[Year]., Country., Greece
		t.Errorf("len(Subqueries) = %d, want 4", len(subs))
	}
	if Size(e) != 4 {
		t.Errorf("Size = %d", Size(e))
	}
}

// nested is a query whose head repeats n times around a leaf, each
// repetition closed by tail.
func nested(head, leaf, tail string, n int) string {
	return strings.Repeat(head, n) + leaf + strings.Repeat(tail, n)
}

// TestParseRefusesDeepNesting holds the nesting cap to its level: count(
// n deep around a join is n+2 levels, so MaxDepth-2 of them parse and
// one more is refused. Every nesting form, as deep as MaxQueryBytes
// lets it go (past 120 levels for each), is refused too, as a
// *DepthError.
func TestParseRefusesDeepNesting(t *testing.T) {
	if _, err := Parse(nested("count(", "Nation.Greece", ")", MaxDepth-2)); err != nil {
		t.Errorf("count( %d deep: %v", MaxDepth-2, err)
	}
	deepest := func(head, leaf, tail string) string {
		return nested(head, leaf, tail, (MaxQueryBytes-len(leaf))/(len(head)+len(tail)))
	}
	for _, src := range []string{
		nested("count(", "Nation.Greece", ")", MaxDepth-1),
		deepest("count(", "Nation.Greece", ")"),
		deepest("(", "Nation.Greece", ")"),
		deepest("Prev.", "Nation.Greece", ""),
		deepest("R[Prev].", "Nation.Greece", ""),
		deepest("R[Year].", "Nation.Greece", ""),
		deepest("Nation.", "Greece", ""),
		deepest("(Nation.Greece or ", "Nation.Fiji", ")"),
		deepest("sub(", "count(Record)", ", count(Record))"),
		deepest("argmax(", "Record", ", Year)"),
		deepest("R[Year].argmax(", "Record", ", Index)"),
		deepest("argmax(", "(Greece or Fiji)", ", R[λx.R[Year].Nation.x])"),
	} {
		_, err := Parse(src)
		var de *DepthError
		if !errors.As(err, &de) || de.Limit != MaxDepth {
			t.Errorf("%.30s…: err = %v, want a *DepthError at %d", src, err, MaxDepth)
			continue
		}
		if want := "lambda DCS parse: query nested deeper than 100 levels"; err.Error() != want {
			t.Errorf("%.30s…: %q, want %q", src, err, want)
		}
	}
}

// TestParseRefusesLongQueries: a query of MaxQueryBytes parses, and one
// byte more is refused as a *LengthError before it is read, as is
// count( a million deep (7 MB), with one allocation, the error's.
func TestParseRefusesLongQueries(t *testing.T) {
	pad := strings.Repeat(" ", MaxQueryBytes-len("Nation.Greece"))
	if _, err := Parse("Nation.Greece" + pad); err != nil {
		t.Errorf("a query of MaxQueryBytes: %v", err)
	}
	million := nested("count(", "Nation.Greece", ")", 1_000_000)
	for _, src := range []string{"Nation.Greece " + pad, million} {
		_, err := Parse(src)
		var le *LengthError
		if !errors.As(err, &le) || le.Limit != MaxQueryBytes {
			t.Errorf("%.30s… (%d bytes): err = %v, want a *LengthError at %d", src, len(src), err, MaxQueryBytes)
			continue
		}
		if want := "lambda DCS parse: query longer than 4096 bytes"; err.Error() != want {
			t.Errorf("%.30s…: %q, want %q", src, err, want)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { Parse(million) }); allocs > 1 {
		t.Errorf("refusing count( a million deep makes %.0f allocations, want 1", allocs)
	}
}

// TestParseNestedSuperlativesOnce: after R[C]., argmax(recs, X) is an
// index superlative if X is Index and a superlative under R[C]
// otherwise, and recs is read once either way. Reading it as one form
// and then again as the other would take 2^48 reads here.
func TestParseNestedSuperlativesOnce(t *testing.T) {
	for _, tc := range []struct{ tail, want string }{
		{", Index)", "*dcs.IndexSuperlative"},
		{", Year)", "*dcs.ColumnValues"},
	} {
		src := nested("R[Year].argmax(", "Record", tc.tail, 48)
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("%.30s…: %v", src, err)
		}
		if got := fmt.Sprintf("%T", e); got != tc.want || e.String() != src {
			t.Errorf("%.30s…: parsed a %s rendering %.30s…, want a %s rendering the source", src, got, e, tc.want)
		}
	}
}
