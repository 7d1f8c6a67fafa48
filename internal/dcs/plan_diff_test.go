package dcs

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"nlexplain/internal/plan"
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
// and requires identical denotations and witness cells — the guard
// against semantic drift in the lowering, the rewriter and the
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
			want, werr := ExecuteInterpreted(e, tab)
			got, gerr := Execute(e, tab)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("error divergence: interpreter=%v plan=%v", werr, gerr)
			}
			if werr != nil {
				return
			}
			assertSameResult(t, want, got, true)

			fast, ferr := ExecuteAnswer(e, tab)
			if ferr != nil {
				t.Fatalf("ExecuteAnswer: %v", ferr)
			}
			assertSameResult(t, want, fast, false)
			if len(fast.Cells) != 0 {
				t.Errorf("answer-only execution computed %d witness cells, want 0", len(fast.Cells))
			}
		})
	}
}

// TestPlanDifferentialErrors checks that dynamic errors surface on
// both paths for the same queries.
func TestPlanDifferentialErrors(t *testing.T) {
	for _, src := range []string{
		"sum(R[City].Country.Greece)",            // aggregating text
		"max(R[Year].Country.Atlantis)",          // aggregate over empty set
		"sub(R[Year].Country.Greece, Year.1900)", // non-singleton operand
	} {
		tab := olympicsTable(t)
		e := MustParse(src)
		_, werr := ExecuteInterpreted(e, tab)
		_, gerr := Execute(e, tab)
		if werr == nil || gerr == nil {
			t.Errorf("%s: expected both paths to fail, got interpreter=%v plan=%v", src, werr, gerr)
			continue
		}
		if werr.Error() != gerr.Error() {
			t.Errorf("%s: error text diverged:\ninterpreter: %v\nplan:        %v", src, werr, gerr)
		}
	}
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
	if len(want.Cells) != len(got.Cells) {
		t.Fatalf("cells = %v, want %v", got.Cells, want.Cells)
	}
	for i := range want.Cells {
		if want.Cells[i] != got.Cells[i] {
			t.Fatalf("cells = %v, want %v", got.Cells, want.Cells)
		}
	}
}

// orderTracer checks the promise plan.Tracer.Operator makes and the
// provenance tracer leans on: every operator hands over its witness
// cells strictly ascending row-major — sorted and duplicate-free.
type orderTracer struct {
	t   testing.TB
	src string
}

func (orderTracer) Active() bool { return true }

func (o orderTracer) Operator(op string, cells []table.CellRef) {
	for i := 1; i < len(cells); i++ {
		if !cells[i-1].Less(cells[i]) {
			o.t.Errorf("%s: operator %s reports %v before %v (cell %d of %d)", o.src, op, cells[i-1], cells[i], i, len(cells))
			return
		}
	}
}

// executeOrdered is Execute under an orderTracer, the root's detached
// Result.Cells held to the same promise.
func executeOrdered(t testing.TB, e Expr, tab *table.Table) (*Result, error) {
	t.Helper()
	c, err := Compile(e, tab)
	if err != nil {
		return nil, err
	}
	tr := orderTracer{t, e.String()}
	res, err := c.ExecuteWith(tab, tr)
	if err == nil {
		tr.Operator("result", res.Cells)
	}
	return res, err
}

// TestPlanDifferentialNaN pins the interpreter's NaN behaviour on the
// plan path: range comparisons against a NaN literal (where binary
// search on the sorted index would invert partitions) and entity
// inequality involving NaN cells (where canonical-key identity and
// Value.Equal disagree). Zone-map consultation is forced so the zone
// verdicts' NaN and empty-cell tallies are differentially checked too.
func TestPlanDifferentialNaN(t *testing.T) {
	prevZOn := plan.SetZoneSkipping(true)
	prevZT := plan.SetZoneSkipThreshold(0)
	defer func() {
		plan.SetZoneSkipping(prevZOn)
		plan.SetZoneSkipThreshold(prevZT)
	}()
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
		want, werr := ExecuteInterpreted(e, tab)
		got, gerr := Execute(e, tab)
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
		want, werr := ExecuteInterpreted(e, tab)
		got, gerr := Execute(e, tab)
		if werr != nil || gerr != nil {
			t.Fatalf("%s: interpreter=%v plan=%v", e, werr, gerr)
		}
		assertSameResult(t, want, got, true)
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
// the parallel kernels) and zone-map consultation forced (threshold 0,
// skipping enabled). The reference run is serial with zone skipping
// disabled, so a verdict bug in either the parallel kernels or the
// zone layer diverges. Answers, witness cells and error texts must
// match exactly, and on both legs every operator's cells must arrive in
// the order plan.Tracer promises.
func TestPlanDifferentialParallel(t *testing.T) {
	prevW := plan.SetExecWorkers(8)
	prevT := plan.SetParallelThreshold(1)
	prevZOn := plan.SetZoneSkipping(true)
	prevZT := plan.SetZoneSkipThreshold(0)
	defer func() {
		plan.SetExecWorkers(prevW)
		plan.SetParallelThreshold(prevT)
		plan.SetZoneSkipping(prevZOn)
		plan.SetZoneSkipThreshold(prevZT)
	}()
	for _, tc := range diffCorpus {
		tc := tc
		t.Run(tc.table+"/"+tc.src, func(t *testing.T) {
			tab := fixtureByName(t, tc.table)
			e, err := Parse(tc.src)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tc.src, err)
			}
			plan.SetExecWorkers(1)
			plan.SetZoneSkipping(false)
			want, werr := executeOrdered(t, e, tab)
			plan.SetExecWorkers(8)
			plan.SetZoneSkipping(true)
			got, gerr := executeOrdered(t, e, tab)
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
	tab := fractionsTable(200_000)
	defer plan.SetExecWorkers(plan.SetExecWorkers(1))
	for _, src := range []string{"sum(R[Score].Record)", "avg(R[Score].Record)"} {
		e := MustParse(src)
		want, err := ExecuteInterpreted(e, tab)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			plan.SetExecWorkers(workers)
			got, err := executeOrdered(t, e, tab)
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
			prev := plan.SetExecWorkers(mode.workers)
			defer plan.SetExecWorkers(prev)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.ExecuteWith(tab, plan.Capture{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPlanRewritesFixtureQueries sanity-checks that the compiled form
// of the running example actually contains the expected rewritten
// operators (the KB index lookup folded from the join literal).
func TestPlanRewritesFixtureQueries(t *testing.T) {
	tab := olympicsTable(t)
	c, err := Compile(MustParse("max(R[Year].Country.Greece)"), tab)
	if err != nil {
		t.Fatal(err)
	}
	rendered := plan.Format(c.Root)
	if !strings.Contains(rendered, "IndexLookup") {
		t.Errorf("optimized plan missing IndexLookup:\n%s", rendered)
	}
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if _, isDyn := n.(*plan.Lookup); isDyn {
			t.Errorf("constant join argument was not folded into an index lookup:\n%s", rendered)
		}
		for _, ch := range n.Children() {
			walk(ch)
		}
	}
	walk(c.Root)
}
