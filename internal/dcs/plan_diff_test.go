package dcs_test

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	. "nlexplain/internal/dcs"
	"nlexplain/internal/oracle"
	"nlexplain/internal/plan"
	"nlexplain/internal/qrand"
	"nlexplain/internal/table"
)

// diffCorpus is the fixture query corpus every differential test runs:
// one or more queries per operator of the language, over each fixture
// table, including empty denotations and mixed-type columns.
var diffCorpus = []struct {
	table string
	src   string
}{
	// Joins, literals, unions, intersections.
	{"olympics", "Country.Greece"},
	{"olympics", "Record"},
	{"olympics", "City.Nowhere"},
	{"olympics", "(Country.Greece or Country.China)"},
	{"olympics", "(City.London u Country.UK)"},
	{"olympics", "(City.London u Country.Greece)"},
	{"olympics", "R[City].Country.(China or Greece)"},
	// Reverse joins and shifts.
	{"olympics", "R[Year].City.Athens"},
	{"olympics", "R[City].Prev.City.London"},
	{"olympics", "R[City].R[Prev].City.Athens"},
	{"olympics", "R[Year].Prev.City.Athens"},
	// Aggregates.
	{"olympics", "count(City.Athens)"},
	{"olympics", "count(Record)"},
	{"olympics", "max(R[Year].Country.Greece)"},
	{"olympics", "min(R[Year].Country.Greece)"},
	{"olympics", "sum(R[Year].Country.Greece)"},
	{"olympics", "avg(R[Year].Country.Greece)"},
	// Arithmetic.
	{"olympics", "sub(R[Year].City.London, R[Year].City.Beijing)"},
	{"olympics", "sub(count(City.Athens), count(City.London))"},
	{"medals", "sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)"},
	// Superlatives over records, indexes, occurrences and comparisons.
	{"olympics", "argmax(Record, Year)"},
	{"olympics", "argmin(Record, Year)"},
	{"olympics", "argmax(Country.Greece, Year)"},
	{"olympics", "R[Year].argmax(City.Athens, Index)"},
	{"olympics", "R[Year].argmin(City.Athens, Index)"},
	{"olympics", "argmax(Values[City], R[λx.count(City.x)])"},
	{"olympics", "argmax((Athens or London), R[λx.count(City.x)])"},
	{"olympics", "argmax((London or Beijing), R[λx.R[Year].City.x])"},
	{"olympics", "argmin((London or Beijing), R[λx.R[Year].City.x])"},
	// Comparatives, including mixed-kind columns (usl's Open Cup).
	{"players", "Games>4"},
	{"players", "R[Games].Games>4"},
	{"players", "Games>=6"},
	{"players", "Games<2"},
	{"players", "Games<=2"},
	{"players", "Games!=3"},
	{"players", "argmax(Games>2, Games)"},
	{"players", "count(Position.DF)"},
	{"players", "argmax(Values[Club], R[λx.count(Club.x)])"},
	{"usl", "Year>2003"},
	{"usl", `"Open Cup"!="Did not qualify"`},
	{"usl", `argmax(Record, "Open Cup")`},
	{"usl", `argmin(Record, "Open Cup")`},
	{"usl", `max(R[Year].League."USL A-League")`},
	{"usl", `min(R[Year].argmax(Record, "Open Cup"))`},
	{"usl", "argmax(Record, Attendance)"},
	{"medals", "argmax(Record, Total)"},
	{"medals", "argmin(Record, Gold)"},
	{"medals", "R[Nation].argmax(Record, Silver)"},
	{"medals", "Total>100"},
	{"medals", "count(Total>100)"},
	// Aggregates over fractional values spanning three morsels: the one
	// place where the order of the additions is visible in the answer.
	{"fractions", "sum(R[Score].Record)"},
	{"fractions", "avg(R[Score].Record)"},
	{"fractions", "min(R[Score].Id>35000)"},
	// Literal sets under count, sub and a join: counts and differences of
	// constants, a join over a union of literals, and one over a union
	// with a computed side, which no fold may touch.
	{"olympics", "count(Athens)"},
	{"olympics", "count((Athens or London))"},
	{"olympics", "count((Athens or Athens))"},
	{"olympics", "sub(3, 1)"},
	{"olympics", "sub(count(Athens), 1)"},
	{"olympics", "sub(count(City.Athens), count((Athens or London)))"},
	{"olympics", "sub(3, Athens)"},
	{"olympics", "R[Year].City.(Athens or London)"},
	{"olympics", "Year.(2004 or R[Year].City.Paris)"},
}

// scalarFolds are the corpus queries that count a literal set or
// subtract constants. Whether Compile folds them into a constant is a
// plan choice with no visible result (Aggregate and Arith compute the
// same value, Aggr and cells), so TestPlanShapeGolden leaves them out
// and the differential tests hold their results to the reference.
var scalarFolds = map[string]bool{
	"count(Athens)":             true,
	"count((Athens or London))": true,
	"count((Athens or Athens))": true,
	"sub(3, 1)":                 true,
	"sub(count(Athens), 1)":     true,
	"sub(count(City.Athens), count((Athens or London)))": true,
}

func fixtureByName(t testing.TB, name string) *table.Table {
	t.Helper()
	switch name {
	case "olympics":
		return olympicsTable(t)
	case "players":
		return playersTable(t)
	case "usl":
		return uslTable(t)
	case "medals":
		return medalsTable(t)
	case "fractions":
		corpusFractionsOnce.Do(func() { corpusFractions = fractionsTable(70_000) })
		return corpusFractions
	}
	t.Fatalf("unknown fixture table %q", name)
	return nil
}

// TestPlanDifferential executes every corpus query through the legacy
// interpreter and through the plan path (both traced and answer-only)
// and requires identical denotations, witness cells and error texts —
// the guard against semantic drift in the compile walk and the
// vectorized executor.
func TestPlanDifferential(t *testing.T) {
	for _, tc := range diffCorpus {
		tc := tc
		t.Run(tc.table+"/"+tc.src, func(t *testing.T) {
			tab := fixtureByName(t, tc.table)
			e, err := Parse(tc.src)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tc.src, err)
			}
			want, werr := oracle.Execute(e, tab)
			got, gerr := Execute(e, tab)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("error divergence: interpreter=%v plan=%v", werr, gerr)
			}
			if werr != nil {
				if gerr.Error() != werr.Error() {
					t.Fatalf("error text diverged:\ninterpreter: %v\nplan:        %v", werr, gerr)
				}
				return
			}
			assertSameResult(t, want, got, true)

			fast, ferr := ExecuteAnswer(e, tab)
			if ferr != nil {
				t.Fatalf("ExecuteAnswer: %v", ferr)
			}
			assertSameResult(t, want, fast, false)
			if fast.Cells.Len() != 0 {
				t.Errorf("answer-only execution computed %d witness cells, want 0", fast.Cells.Len())
			}
		})
	}
}

// TestPlanDifferentialErrors holds the plan path to the reference's
// refusals: a query the interpreter fails at run time fails on the plan
// path with the same words about the same sub-expression — under either
// tracer, and whichever way the morsel driver runs the kernels. The
// fixture queries come first; then, over qrand tables and one table past
// two morsels, generated queries of every failing family (failingQueries).
func TestPlanDifferentialErrors(t *testing.T) {
	t.Parallel()
	olympics := olympicsTable(t)
	for _, src := range []string{
		"sum(R[City].Country.Greece)",            // aggregating text
		"max(R[Year].Country.Atlantis)",          // aggregate over empty set
		"sub(R[Year].Country.Greece, Year.1900)", // refused statically: records operand
		"sub(R[Year].Country.Greece, 1900)",      // non-singleton operand
		"sub(R[City].Country.China, 1)",          // text operand
	} {
		e := MustParse(src)
		_, werr := oracle.Execute(e, olympics)
		assertSameFailure(t, e, olympics, werr)
	}

	tables := []*table.Table{bigErrorTable()}
	for seed := int64(0); seed < 12; seed++ {
		tables = append(tables, qrand.Table(rand.New(rand.NewSource(seed))))
	}
	counts := map[string]int{}
	for i, tab := range tables {
		// The reference walks maps: on the big table nest one scalar in
		// six, which still puts every family under a sub.
		nest := 1
		if tab.NumRows() > 1000 {
			nest = 6
		}
		for family, qs := range failingQueries(rand.New(rand.NewSource(int64(i))), tab, nest) {
			for _, e := range qs {
				_, werr := oracle.Execute(e, tab)
				if werr == nil {
					continue // a draw that happens to denote one number
				}
				counts[family]++
				assertSameFailure(t, e, tab, werr)
				if family == "both" {
					assertLeftWins(t, e.(*Sub), tab)
				}
			}
		}
	}
	// Every family really failed, and often: a generator that drifts into
	// queries that succeed would leave this test comparing nothing.
	t.Logf("failing queries by family: %v", counts)
	for family, atLeast := range map[string]int{
		"text": 150, "empty": 150, "mixed": 150, "multi": 70, "text-operand": 80, "nested": 1100, "both": 700,
	} {
		if counts[family] < atLeast {
			t.Errorf("family %s: %d failing queries generated, want at least %d", family, counts[family], atLeast)
		}
	}
}

// The executors the differential tests run the plan path in: inline
// with no zone maps (the reference), forked across workers however small
// the input, and through the zone verdicts on every table.
var (
	serialExec = &plan.Exec{Workers: 1, ZoneFloor: math.MaxInt}
	forkExec   = &plan.Exec{Workers: 8, ForkAt: 1, ZoneFloor: math.MaxInt}
	zoneExec   = &plan.Exec{Workers: 1, ZoneFloor: 1}
)

var execModes = []struct {
	name string
	x    *plan.Exec
}{{"serial", serialExec}, {"forced-fork", forkExec}, {"forced-zone", zoneExec}}

// assertSameFailure takes the reference's refusal of e and requires, in
// every execution mode and under both tracers, the plan path to fail
// with the same text about the very node of e the reference names.
func assertSameFailure(t *testing.T, e Expr, tab *table.Table, werr error) {
	t.Helper()
	where := tab.Name()
	if werr == nil {
		t.Errorf("%s: %s: the reference does not fail", where, e)
		return
	}
	for _, mode := range execModes {
		_, traced := ExecuteIn(mode.x, e, tab, plan.Capture{})
		_, answer := ExecuteIn(mode.x, e, tab, plan.Noop{})
		for tracer, gerr := range map[string]error{"traced": traced, "answer-only": answer} {
			if gerr == nil {
				t.Errorf("%s: %s (%s, %s): plan path succeeds, reference fails: %v", where, e, mode.name, tracer, werr)
				continue
			}
			if gerr.Error() != werr.Error() {
				t.Errorf("%s: %s (%s, %s): error text diverged:\nreference: %v\nplan:      %v", where, e, mode.name, tracer, werr, gerr)
			}
			var we, ge *ExecError
			if errors.As(werr, &we) && (!errors.As(gerr, &ge) || ge.Expr != we.Expr) {
				t.Errorf("%s: %s (%s, %s): plan error %v does not name the reference's node %s", where, e, mode.name, tracer, gerr, we.Expr)
			}
		}
	}
}

// assertLeftWins spells out the order a sub reports in, against the
// plan path alone: an operand that fails to evaluate is named, the left
// before the right; only when both evaluate is the sub itself named,
// for its left operand if that is unfit, for its right one otherwise.
func assertLeftWins(t *testing.T, sub *Sub, tab *table.Table) {
	t.Helper()
	_, err := Execute(sub, tab)
	var got *ExecError
	if !errors.As(err, &got) {
		t.Errorf("%s: %s: error %v is not an ExecError", tab.Name(), sub, err)
		return
	}
	unfit := ""
	for i, operand := range []Expr{sub.L, sub.R} {
		res, err := Execute(operand, tab)
		var inner *ExecError
		if errors.As(err, &inner) {
			if got.Expr != inner.Expr {
				t.Errorf("%s: %s: names %s, want the failing operand's %s", tab.Name(), sub, got.Expr, inner.Expr)
			}
			return
		}
		if fit := len(res.Values) == 1 && res.Values[0].IsNumeric(); !fit && unfit == "" {
			unfit = [...]string{"left", "right"}[i]
		}
	}
	if got.Expr != Expr(sub) || !strings.HasPrefix(got.Msg, unfit+" operand") {
		t.Errorf("%s: %s: both operands evaluate; error = %v, want the sub's %s operand named", tab.Name(), sub, err, unfit)
	}
}

// bigErrorTable has qrand's five columns over 70 000 rows — past two
// morsels, so a forced fork really splits the fold — and a sixth,
// Mixed, of distinct numbers with a text cell in the second morsel and
// another in the third: an aggregate over it must name the earlier.
func bigErrorTable() *table.Table {
	rng := rand.New(rand.NewSource(5))
	small := make([]*table.Table, 16)
	for i := range small {
		small[i] = qrand.Table(rng)
	}
	rows := make([][]string, 70_000)
	for i := range rows {
		src := small[rng.Intn(len(small))]
		r := rng.Intn(src.NumRows())
		row := make([]string, 0, 6)
		for c := 0; c < src.NumCols(); c++ {
			row = append(row, src.Value(r, c).String())
		}
		mixed := strconv.Itoa(i) + ".5"
		switch i {
		case 40_000:
			mixed = "n/a"
		case 69_000:
			mixed = "withdrawn"
		}
		rows[i] = append(row, mixed)
	}
	return table.MustNew("big", []string{"Nation", "City", "Year", "Games", "Result", "Mixed"}, rows)
}

// failingQueries draws, over a table with qrand's columns, queries the
// reference refuses at run time, by family. The language admits a
// scalar only under sub, so "nested" means two things: the failing
// operator's input is built through each operator that can hold a
// record set — a bare qrand draw, argmax / argmin, union, intersection,
// always under the R[...] that turns it into values — and the failing
// scalar itself sits on either side of an outer sub.
//
//	text          min / max / sum / avg over a text column
//	empty         … over a numeric column of no records
//	mixed         … over a union of a numeric and a text projection (and,
//	              where the table has one, the Mixed column)
//	multi         sub with a projection of several (or no) values
//	text-operand  sub with the one text value an index superlative picks
//	nested        any of the above as the left or right operand of a sub
//	both          sub of two failing operands: the left one must be named
//
// A draw may, rarely, denote a single number and succeed (a one-row
// record set under "multi"); the caller skips those. Every nest-th
// scalar goes under an outer sub.
func failingQueries(rng *rand.Rand, tab *table.Table, nest int) map[string][]Expr {
	textCols := []string{"Nation", "City", "Result"}
	numCols := []string{"Year", "Games"}
	fns := []AggrFn{Min, Max, Sum, Avg}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	one := &ValueLit{V: table.NumberValue(1)}
	recs := func() Expr { return qrand.Records(rng, tab, 1) }
	nowhere := func() Expr {
		return &Join{Column: pick(textCols), Arg: &ValueLit{V: table.StringValue("Atlantis")}}
	}
	// shapes nests a record-set draw under each operator that holds one.
	shapes := func(draw func() Expr) []Expr {
		return []Expr{
			draw(),
			&ArgRecords{Max: rng.Intn(2) == 0, Records: draw(), Column: pick(numCols)},
			&Union{L: draw(), R: draw()},
			&Intersect{L: draw(), R: draw()},
		}
	}
	out := map[string][]Expr{}
	for _, fn := range fns {
		for _, rs := range shapes(recs) {
			out["text"] = append(out["text"], &Aggregate{Fn: fn, Arg: &ColumnValues{Column: pick(textCols), Records: rs}})
		}
		for _, rs := range shapes(nowhere) {
			out["empty"] = append(out["empty"], &Aggregate{Fn: fn, Arg: &ColumnValues{Column: pick(numCols), Records: rs}})
		}
		for _, rs := range shapes(recs) {
			out["mixed"] = append(out["mixed"], &Aggregate{Fn: fn, Arg: &Union{
				L: &ColumnValues{Column: pick(numCols), Records: rs},
				R: &ColumnValues{Column: pick(textCols), Records: rs},
			}})
		}
		if _, ok := tab.ColumnIndex("Mixed"); ok {
			out["mixed"] = append(out["mixed"], &Aggregate{Fn: fn, Arg: &ColumnValues{Column: "Mixed", Records: &AllRecords{}}})
		}
	}
	for _, rs := range shapes(recs) {
		many := &ColumnValues{Column: pick(append(numCols, textCols...)), Records: rs}
		out["multi"] = append(out["multi"], &Sub{L: many, R: one}, &Sub{L: one, R: many})
		word := &IndexSuperlative{Column: pick(textCols), Records: rs, First: rng.Intn(2) == 0}
		out["text-operand"] = append(out["text-operand"], &Sub{L: word, R: one}, &Sub{L: one, R: word})
		// Both operands unfit: the left one is reported. And a right
		// operand that fails to evaluate is reported before a left one
		// that evaluates but is unfit.
		out["both"] = append(out["both"], &Sub{L: many, R: word}, &Sub{L: word, R: many},
			&Sub{L: word, R: &Aggregate{Fn: Max, Arg: &ColumnValues{Column: pick(numCols), Records: nowhere()}}})
	}
	var scalars []Expr
	for _, family := range []string{"text", "empty", "mixed", "multi", "text-operand"} {
		scalars = append(scalars, out[family]...)
	}
	for i := 0; i < len(scalars); i += nest {
		s := scalars[i]
		out["nested"] = append(out["nested"], &Sub{L: s, R: one}, &Sub{L: one, R: s})
		out["both"] = append(out["both"], &Sub{L: s, R: scalars[rng.Intn(len(scalars))]})
	}
	return out
}

// TestPlanErrorNamesSubexpression pins the legacy error contract: a
// dynamic failure deep in a nested query names the failing
// sub-expression, not the whole query.
func TestPlanErrorNamesSubexpression(t *testing.T) {
	tab := olympicsTable(t)
	e := MustParse("sub(max(R[Year].Country.Greece), min(R[Year].Country.Atlantis))")
	_, err := Execute(e, tab)
	if err == nil {
		t.Fatal("expected an empty-aggregate error")
	}
	want := "executing min(R[Year].Country.Atlantis): min over an empty set"
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
}

func assertSameResult(t *testing.T, want, got *Result, cells bool) {
	t.Helper()
	if want.Type != got.Type {
		t.Fatalf("type = %v, want %v", got.Type, want.Type)
	}
	if want.Aggr != got.Aggr {
		t.Errorf("aggr = %q, want %q", got.Aggr, want.Aggr)
	}
	if wk, gk := want.AnswerKey(), got.AnswerKey(); wk != gk {
		t.Fatalf("AnswerKey = %q, want %q", gk, wk)
	}
	if len(want.Records) != len(got.Records) {
		t.Fatalf("records = %v, want %v", got.Records, want.Records)
	}
	for i := range want.Records {
		if want.Records[i] != got.Records[i] {
			t.Fatalf("records = %v, want %v", got.Records, want.Records)
		}
	}
	if len(want.Values) != len(got.Values) {
		t.Fatalf("values = %v, want %v", got.Values, want.Values)
	}
	for i := range want.Values {
		// A NaN answer (the literal "nan", a sum over a NaN cell) equals
		// nothing under Equal, itself included.
		w, g := want.Values[i], got.Values[i]
		bothNaN := w.Kind == table.Number && g.Kind == table.Number && math.IsNaN(w.Num) && math.IsNaN(g.Num)
		if !bothNaN && !w.Equal(g) {
			t.Fatalf("values = %v, want %v", got.Values, want.Values)
		}
	}
	if !cells {
		return
	}
	if wc, gc := levelCells(want.Cells), levelCells(got.Cells); !slices.Equal(wc, gc) {
		t.Fatalf("cells = %v, want %v", gc, wc)
	}
}

// orderTracer checks the promise plan.Tracer.Operator makes and the
// provenance tracer leans on: every operator hands over its witness
// cells as spans strictly ascending by column, none empty, each with
// its rows strictly ascending — sorted and duplicate-free.
type orderTracer struct {
	t   testing.TB
	src string
}

func (orderTracer) Active() bool { return true }

func (o orderTracer) Operator(op string, spans []table.Span) {
	for i, sp := range spans {
		switch {
		case len(sp.Rows) == 0:
			o.t.Errorf("%s: operator %s reports column %d with no rows", o.src, op, sp.Col)
		case i > 0 && spans[i-1].Col >= sp.Col:
			o.t.Errorf("%s: operator %s reports column %d after column %d", o.src, op, sp.Col, spans[i-1].Col)
		case !slices.IsSorted(sp.Rows) || len(slices.Compact(slices.Clone(sp.Rows))) != len(sp.Rows):
			o.t.Errorf("%s: operator %s reports column %d's rows out of order or twice: %v", o.src, op, sp.Col, sp.Rows)
		default:
			continue
		}
		return
	}
}

// executeOrdered is Execute in x under an orderTracer.
func executeOrdered(t testing.TB, x *plan.Exec, e Expr, tab *table.Table) (*Result, error) {
	t.Helper()
	c, err := Compile(e, tab)
	if err != nil {
		return nil, err
	}
	c.Exec = x
	tr := orderTracer{t, e.String()}
	return c.ExecuteWith(tab, tr)
}

// TestPlanDifferentialNaN pins the interpreter's NaN behaviour on the
// plan path: range comparisons against a NaN literal (where binary
// search on the sorted index would invert partitions) and entity
// inequality involving NaN cells (where canonical-key identity and
// Value.Equal disagree). Zone-map consultation is forced so the zone
// verdicts' NaN and empty-cell tallies are differentially checked too.
func TestPlanDifferentialNaN(t *testing.T) {
	t.Parallel()
	// N holds a NaN cell (non-indexable column); M is a clean numeric
	// column, so a NaN literal against M exercises the sorted-index
	// guard rather than the non-indexable fallback. The empty cell in N
	// exercises the zone layer's EmptyCount accounting.
	tab := table.MustNew("nums",
		[]string{"Label", "N", "M"},
		[][]string{
			{"a", "1", "10"},
			{"b", "nan", "20"}, // ParseValue("nan") is NumberValue(NaN)
			{"c", "3", "30"},
			{"d", "", "40"}, // empty cell: non-numeric, matches no range
		})
	nan := table.ParseValue("nan")
	two := table.NumberValue(2)
	var cases []Expr
	for _, col := range []string{"N", "M"} {
		for _, op := range []CmpOp{Lt, Le, Gt, Ge, Ne} {
			cases = append(cases,
				&Compare{Column: col, Op: op, V: nan},
				&Compare{Column: col, Op: op, V: two})
		}
		cases = append(cases, &ArgRecords{Max: true, Records: &AllRecords{}, Column: col})
	}
	for _, e := range cases {
		want, werr := oracle.Execute(e, tab)
		got, gerr := ExecuteIn(zoneExec, e, tab, plan.Capture{})
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: error divergence: interpreter=%v plan=%v", e, werr, gerr)
		}
		if werr != nil {
			continue
		}
		assertSameResult(t, want, got, true)
	}
}

// TestPlanDifferentialUnicodeFold pins the second Key/Equal
// disagreement: Value.Equal uses strings.EqualFold (Unicode simple
// folds, 'ſ' matches 'S') while canonical keys use strings.ToLower
// ('ſ' keeps its key). Equality fast paths must detect non-ASCII and
// fall back to Equal semantics.
func TestPlanDifferentialUnicodeFold(t *testing.T) {
	tab := table.MustNew("folds",
		[]string{"Label", "Mark"},
		[][]string{
			{"a", "S"},
			{"b", "ſ"}, // U+017F LATIN SMALL LETTER LONG S, EqualFold-equal to "S"
			{"c", "x"},
		})
	for _, e := range []Expr{
		&Compare{Column: "Mark", Op: Ne, V: table.StringValue("S")},
		&Compare{Column: "Mark", Op: Ne, V: table.StringValue("ſ")},
	} {
		want, werr := oracle.Execute(e, tab)
		got, gerr := Execute(e, tab)
		if werr != nil || gerr != nil {
			t.Fatalf("%s: interpreter=%v plan=%v", e, werr, gerr)
		}
		assertSameResult(t, want, got, true)
	}
}

// hostileSpellings are cell texts and literals whose canonical keys
// (Value.Key) are easy to get wrong: ASCII case, the Unicode letters
// whose lower case is not their fold ('ſ' keeps its key, the Kelvin
// sign 'K' lowers to ASCII 'k'), numbers spelled with a separator, a
// leading zero or a sign, NaN in two cases, a date, text past 64 bytes
// in two cases, and the empty cell.
var hostileSpellings = []string{
	"Greece", "GREECE", "gReEcE",
	"S", "s", "ſ",
	"K", "k", "K",
	"1,000", "1000",
	"007", "7",
	"-0", "0",
	"NaN", "nan",
	"2004-08-13", "August 13, 2004",
	strings.Repeat("Long text ", 7), strings.Repeat("LONG TEXT ", 7),
	"",
}

// TestPlanDifferentialHostileLiterals holds every join over a literal
// to the reference on a column of hostileSpellings: each spelling as a
// parsed literal and as text, alone and in a literal set, under count,
// as most-frequent and comparing-values candidates, and a join over the
// column's own values. Every query runs serial, forked and zone-forced,
// traced and answer-only.
func TestPlanDifferentialHostileLiterals(t *testing.T) {
	t.Parallel()
	rows := make([][]string, len(hostileSpellings))
	for i, s := range hostileSpellings {
		rows[i] = []string{strconv.Itoa(i), s, strconv.Itoa(i % 5)}
	}
	tab := table.MustNew("hostile", []string{"Label", "Mark", "N"}, rows)
	var lits []Expr
	for _, s := range hostileSpellings {
		lits = append(lits, &ValueLit{V: table.ParseValue(s)}, &ValueLit{V: table.StringValue(s)})
	}
	cases := []Expr{
		&Join{Column: "Mark", Arg: &ColumnValues{Column: "Mark", Records: &AllRecords{}}},
		&MostFrequent{Column: "Mark"},
	}
	for i, lit := range lits {
		pair := &Union{L: lit, R: lits[(i+3)%len(lits)]}
		cases = append(cases,
			&Join{Column: "Mark", Arg: lit},
			&Join{Column: "Mark", Arg: pair},
			&Aggregate{Fn: Count, Arg: &Join{Column: "Mark", Arg: lit}},
			&MostFrequent{Vals: pair, Column: "Mark"},
			&CompareValues{Max: i%2 == 0, Vals: pair, KeyCol: "N", ValCol: "Mark"},
		)
	}
	for _, e := range cases {
		want, werr := oracle.Execute(e, tab)
		if werr != nil {
			t.Fatalf("%s: reference fails: %v", e, werr)
		}
		for _, mode := range execModes {
			got, gerr := executeOrdered(t, mode.x, e, tab)
			fast, ferr := ExecuteIn(mode.x, e, tab, plan.Noop{})
			if gerr != nil || ferr != nil {
				t.Fatalf("%s (%s): traced=%v answer-only=%v", e, mode.name, gerr, ferr)
			}
			assertSameResult(t, want, got, true)
			assertSameResult(t, want, fast, false)
		}
	}
}

// TestResultRowsDoNotAliasTableIndex guards against the executor
// leaking the table's shared KB posting lists into caller-owned
// results: mutating a Result must not corrupt later queries.
func TestResultRowsDoNotAliasTableIndex(t *testing.T) {
	tab := olympicsTable(t)
	e := MustParse("Country.Greece")
	first, err := Execute(e, tab)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Records {
		first.Records[i] = 99 // caller scribbles on its result
	}
	second, err := Execute(e, tab)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Records) != 2 || second.Records[0] != 0 || second.Records[1] != 2 {
		t.Fatalf("records = %v after mutating a previous result; the KB index was aliased", second.Records)
	}
}

// TestPlanDifferentialParallel runs the whole differential corpus a
// third way: through the plan path with the morsel-parallel executor
// forced on (8 workers, threshold 1, so even fixture-sized inputs take
// the parallel kernels) and zone-map consultation forced (floor 1,
// skipping enabled). The reference run is serial with zone skipping
// disabled, so a verdict bug in either the parallel kernels or the
// zone layer diverges. Answers, witness cells and error texts must
// match exactly, and on both legs every operator's cells must arrive in
// the order plan.Tracer promises.
func TestPlanDifferentialParallel(t *testing.T) {
	t.Parallel()
	forkZone := &plan.Exec{Workers: 8, ForkAt: 1, ZoneFloor: 1}
	for _, tc := range diffCorpus {
		t.Run(tc.table+"/"+tc.src, func(t *testing.T) {
			tab := fixtureByName(t, tc.table)
			e, err := Parse(tc.src)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tc.src, err)
			}
			want, werr := executeOrdered(t, serialExec, e, tab)
			got, gerr := executeOrdered(t, forkZone, e, tab)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("error divergence: serial=%v parallel=%v", werr, gerr)
			}
			if werr != nil {
				if werr.Error() != gerr.Error() {
					t.Fatalf("error text diverged:\nserial:   %v\nparallel: %v", werr, gerr)
				}
				return
			}
			assertSameResult(t, want, got, true)
		})
	}
}

// TestPlanDifferentialParallelFractions pins the aggregate fold to the
// interpreter's bit for bit, at any worker count: sum and avg over
// 200 000 fractional values (past the default parallel threshold, so
// eight workers fork at the shipped configuration) must return the
// same float64 with one worker, with eight, and from the reference
// interpreter.
func TestPlanDifferentialParallelFractions(t *testing.T) {
	t.Parallel()
	tab := fractionsTable(200_000)
	for _, src := range []string{"sum(R[Score].Record)", "avg(R[Score].Record)"} {
		e := MustParse(src)
		want, err := oracle.Execute(e, tab)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			got, err := executeOrdered(t, &plan.Exec{Workers: workers}, e, tab)
			if err != nil {
				t.Fatal(err)
			}
			w, g := want.Values[0].Num, got.Values[0].Num
			if math.Float64bits(w) != math.Float64bits(g) {
				t.Errorf("%s with %d workers = %v, interpreter = %v", src, workers, g, w)
			}
		}
	}
}

// BenchmarkCompiledBigNe times a compiled count-over-inequality on a
// 2^20-row table through the full dcs execution path (with witness
// cells), serial vs morsel-parallel — the query shape the bigtable
// workload's filter family stresses.
func BenchmarkCompiledBigNe(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	nations := []string{"Greece", "France", "China", "UK", "Brazil", "Fiji"}
	rows := make([][]string, 1<<20)
	for i := range rows {
		rows[i] = []string{nations[rng.Intn(len(nations))], strconv.Itoa(rng.Intn(1_000_000))}
	}
	tab := table.MustNew("big", []string{"Nation", "Games"}, rows)
	expr := &Aggregate{Fn: Count, Arg: &Compare{Column: "Games", Op: Ne, V: table.NumberValue(500_000)}}
	c, err := Compile(expr, tab)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 8}} {
		b.Run(mode.name, func(b *testing.B) {
			c.Exec = &plan.Exec{Workers: mode.workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.ExecuteWith(tab, plan.Capture{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPlanRewritesFixtureQueries checks that Compile turns a join over
// a literal set into a Lookup over the one Const the set compiled to:
// the running example's one value, and both values of a join over a
// union of two literals, folded into one Const.
func TestPlanRewritesFixtureQueries(t *testing.T) {
	tab := olympicsTable(t)
	for src, values := range map[string]int{
		"max(R[Year].Country.Greece)":     1,
		"R[Year].City.(Athens or London)": 2,
	} {
		c, err := Compile(MustParse(src), tab)
		if err != nil {
			t.Fatal(err)
		}
		rendered := plan.Format(c.Root)
		lookups := 0
		var walk func(plan.Node)
		walk = func(n plan.Node) {
			if x, ok := n.(*plan.Lookup); ok {
				lookups++
				if k, ok := x.Input.(*plan.Const); !ok || len(k.Values) != values {
					t.Errorf("%s: lookup input is not one Const of %d literals:\n%s", src, values, rendered)
				}
			}
			for _, ch := range n.Children() {
				walk(ch)
			}
		}
		walk(c.Root)
		if lookups != 1 {
			t.Errorf("%s: compiled plan holds %d Lookups, want 1:\n%s", src, lookups, rendered)
		}
	}
}
