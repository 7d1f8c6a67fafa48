package minisql

import (
	"fmt"
	"strconv"
	"testing"

	"nlexplain/internal/plan"
	"nlexplain/internal/table"
)

// sqlDiffCorpus covers every statement shape the executor supports:
// filters (native and subquery predicates), projections, aggregates,
// grouping, ordering, DISTINCT, LIMIT, UNION and scalar difference.
var sqlDiffCorpus = []string{
	"SELECT * FROM T",
	"SELECT City FROM T",
	"SELECT Year, City FROM T",
	"SELECT City FROM T WHERE Country = 'Greece'",
	"SELECT City FROM T WHERE Country = 'Nowhere'",
	"SELECT City FROM T WHERE Year > 2000",
	"SELECT City FROM T WHERE Year >= 2004 AND Country != 'China'",
	"SELECT City FROM T WHERE Country = 'Greece' OR Country = 'UK'",
	"SELECT City FROM T WHERE NOT (Country = 'Greece')",
	"SELECT City FROM T WHERE 1900 < Year",
	"SELECT DISTINCT Country FROM T",
	"SELECT DISTINCT City FROM T WHERE Country = 'Greece'",
	"SELECT City FROM T ORDER BY Year DESC",
	"SELECT City FROM T ORDER BY Year DESC LIMIT 1",
	"SELECT City FROM T ORDER BY Index DESC LIMIT 2",
	"SELECT Year FROM T WHERE Index = 0",
	"SELECT COUNT(*) FROM T",
	"SELECT COUNT(*) FROM T WHERE Country = 'Greece'",
	"SELECT COUNT(DISTINCT Country) FROM T",
	"SELECT MAX(Year) FROM T WHERE Country = 'Greece'",
	"SELECT MIN(Year), MAX(Year) FROM T",
	"SELECT SUM(Year) FROM T WHERE City = 'Athens'",
	"SELECT AVG(Year) FROM T WHERE City = 'Athens'",
	"SELECT Country FROM T GROUP BY Country",
	"SELECT Country, COUNT(*) FROM T GROUP BY Country",
	"SELECT Country FROM T GROUP BY Country ORDER BY COUNT(*) DESC LIMIT 1",
	"SELECT City FROM T WHERE Year = (SELECT MAX(Year) FROM T)",
	"SELECT City FROM T WHERE Year IN (SELECT Year FROM T WHERE Country = 'Greece')",
	"SELECT City FROM T WHERE Country = 'Greece' UNION SELECT City FROM T WHERE Country = 'UK'",
	"SELECT City FROM T UNION SELECT City FROM T",
	"(SELECT COUNT(*) FROM T WHERE City = 'Athens') - (SELECT COUNT(*) FROM T WHERE City = 'London')",
	"SELECT MAX(Year) FROM T WHERE MIN(Year) > 1800",
	"SELECT City FROM T WHERE (SELECT MAX(Year) FROM T WHERE Country = 'Atlantis') > 2000",
}

// TestSQLPlanDifferential runs every corpus statement through the
// legacy interpreter and the plan path and requires identical columns,
// data, and source-row bookkeeping.
func TestSQLPlanDifferential(t *testing.T) {
	tab := olympics(t)
	for _, src := range sqlDiffCorpus {
		src := src
		t.Run(src, func(t *testing.T) {
			q, err := Parse(src)
			if err != nil {
				t.Fatalf("Parse(%q): %v", src, err)
			}
			want, werr := ExecInterpreted(q, tab)
			got, gerr := Exec(q, tab)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("error divergence: interpreter=%v plan=%v", werr, gerr)
			}
			if werr != nil {
				return
			}
			assertSameRows(t, want, got)
		})
	}
}

// seqTable is three morsels of one monotone numeric column, so every
// zone holds a disjoint range and a range predicate over Seq can prove
// whole morsels row-free or all-match.
func seqTable(t testing.TB) *table.Table {
	t.Helper()
	rows := make([][]string, 3*table.ZoneRows)
	for r := range rows {
		rows[r] = []string{strconv.Itoa(r)}
	}
	return table.MustNew("T", []string{"Seq"}, rows)
}

// seqRangeCount is the fused range count the rewriter keeps as
// Filter(Scan, And) over the scan — the shape zone maps answer.
func seqRangeCount(lo, hi int) string {
	return fmt.Sprintf("SELECT COUNT(Index) FROM T WHERE Seq >= %d AND Seq <= %d", lo, hi)
}

// TestSQLPlanDifferentialParallel runs statements through the plan
// path twice per executor configuration — the reference setting, then
// the strategy forced on — and requires identical rows, columns and
// source bookkeeping. Forked: one worker vs the morsel-parallel
// executor (8 workers, threshold 1); GROUP BY, DISTINCT and projection
// merges must be order-identical, not just set-identical. Zones: zone
// maps off vs consulted on every table (threshold 0), over the corpus
// and over narrow / point / wide range counts on a monotone column,
// where the narrow and point probes must also move the skipped-morsel
// counter.
func TestSQLPlanDifferentialParallel(t *testing.T) {
	prevW := plan.SetExecWorkers(1)
	prevT := plan.SetParallelThreshold(1)
	prevZ := plan.SetZoneSkipping(true)
	prevZT := plan.SetZoneSkipThreshold(0)
	defer func() {
		plan.SetExecWorkers(prevW)
		plan.SetParallelThreshold(prevT)
		plan.SetZoneSkipping(prevZ)
		plan.SetZoneSkipThreshold(prevZT)
	}()
	forked := func(on bool) {
		if on {
			plan.SetExecWorkers(8)
		} else {
			plan.SetExecWorkers(1)
		}
	}
	zones := func(on bool) { plan.SetZoneSkipping(on) }
	n := 3 * table.ZoneRows
	for _, leg := range []struct {
		prefix   string // of the subtest names; the forked leg keeps the bare statement
		set      func(on bool)
		tab      *table.Table
		stmts    []string
		mustSkip int // this many leading statements must skip morsels when on
	}{
		{"", forked, olympics(t), sqlDiffCorpus, 0},
		{"zones/", zones, olympics(t), sqlDiffCorpus, 0},
		{"zones-seq/", zones, seqTable(t), []string{
			seqRangeCount(n/2, n/2+n/100), // narrow: 1% of the rows
			seqRangeCount(n/2, n/2),       // point
			seqRangeCount(0, n-n/100),     // wide: no morsel is row-free
		}, 2},
	} {
		for i, src := range leg.stmts {
			t.Run(leg.prefix+src, func(t *testing.T) {
				q, err := Parse(src)
				if err != nil {
					t.Fatalf("Parse(%q): %v", src, err)
				}
				leg.set(false)
				want, werr := Exec(q, leg.tab)
				leg.set(true)
				skipBefore, _ := plan.SkipStats()
				got, gerr := Exec(q, leg.tab)
				skipAfter, _ := plan.SkipStats()
				leg.set(false)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("error divergence: off=%v on=%v", werr, gerr)
				}
				if werr != nil {
					if werr.Error() != gerr.Error() {
						t.Fatalf("error text diverged:\noff: %v\non:  %v", werr, gerr)
					}
					return
				}
				assertSameRows(t, want, got)
				if i < leg.mustSkip && skipAfter == skipBefore {
					t.Fatalf("zone skipping never engaged (skipped-morsel counter did not move)")
				}
			})
		}
	}
}

// TestSQLPlanDifferentialErrors checks error parity on the statements
// the interpreter rejects at runtime.
func TestSQLPlanDifferentialErrors(t *testing.T) {
	tab := olympics(t)
	for _, src := range []string{
		"SELECT MAX(Year) FROM T WHERE Country = 'Atlantis'",                   // empty aggregate
		"SELECT SUM(City) FROM T",                                              // non-numeric sum
		"SELECT City FROM T UNION SELECT Year, City FROM T",                    // width mismatch
		"SELECT City FROM T WHERE Year = (SELECT Year FROM T)",                 // non-scalar subquery
		"(SELECT City FROM T WHERE Country = 'UK') - (SELECT COUNT(*) FROM T)", // non-numeric diff operand is scalar here; shape ok
	} {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		_, werr := ExecInterpreted(q, tab)
		_, gerr := Exec(q, tab)
		if (werr == nil) != (gerr == nil) {
			t.Errorf("%s: error divergence: interpreter=%v plan=%v", src, werr, gerr)
		}
	}
}

func assertSameRows(t *testing.T, want, got *Rows) {
	t.Helper()
	if len(want.Cols) != len(got.Cols) {
		t.Fatalf("cols = %v, want %v", got.Cols, want.Cols)
	}
	for i := range want.Cols {
		if want.Cols[i] != got.Cols[i] {
			t.Fatalf("cols = %v, want %v", got.Cols, want.Cols)
		}
	}
	if len(want.Data) != len(got.Data) {
		t.Fatalf("%d rows, want %d", len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if len(want.Data[i]) != len(got.Data[i]) {
			t.Fatalf("row %d: %v, want %v", i, got.Data[i], want.Data[i])
		}
		for j := range want.Data[i] {
			if !want.Data[i][j].Equal(got.Data[i][j]) {
				t.Fatalf("row %d: %v, want %v", i, got.Data[i], want.Data[i])
			}
		}
	}
	if len(want.Src) != len(got.Src) {
		t.Fatalf("src = %v, want %v", got.Src, want.Src)
	}
	for i := range want.Src {
		if want.Src[i] != got.Src[i] {
			t.Fatalf("src = %v, want %v", got.Src, want.Src)
		}
	}
}

// TestSQLPlanDifferentialNaN pins Equal semantics for predicates over
// NaN cells: the interpreter's Value.Equal never matches NaN, so the
// plan path must not serve such predicates from the key-identity index.
func TestSQLPlanDifferentialNaN(t *testing.T) {
	tab := table.MustNew("nums",
		[]string{"Label", "N"},
		[][]string{
			{"a", "1"},
			{"b", "nan"},
			{"c", "3"},
		})
	for _, src := range []string{
		"SELECT Label FROM T WHERE N = 'nan'",
		"SELECT Label FROM T WHERE N != 'nan'",
		"SELECT Label FROM T WHERE N != 3",
		"SELECT Label FROM T WHERE N > 0",
		"SELECT Label FROM T WHERE N <= 3",
	} {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		want, werr := ExecInterpreted(q, tab)
		got, gerr := Exec(q, tab)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: error divergence: interpreter=%v plan=%v", src, werr, gerr)
		}
		if werr != nil {
			continue
		}
		assertSameRows(t, want, got)
	}
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
