package dcs_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	. "nlexplain/internal/dcs"
	"nlexplain/internal/oracle"
	"nlexplain/internal/plan"
	"nlexplain/internal/table"
)

// expectation is a deep copy of a serial reference execution.
type expectation struct {
	src      string
	compiled *Compiled
	traced   *Result // Capture tracer
	answer   *Result // Noop tracer
	err      string
}

func snapshotResult(r *Result) *Result {
	if r == nil {
		return nil
	}
	return &Result{
		Type:    r.Type,
		Records: append([]int(nil), r.Records...),
		Values:  append([]table.Value(nil), r.Values...),
		Cells:   r.Cells, // immutable
		Aggr:    r.Aggr,
	}
}

func sameResults(a, b *Result) error {
	if a.Type != b.Type || a.Aggr != b.Aggr {
		return fmt.Errorf("type/aggr diverged: %v/%q vs %v/%q", a.Type, a.Aggr, b.Type, b.Aggr)
	}
	if len(a.Records) != len(b.Records) {
		return fmt.Errorf("records %v vs %v", a.Records, b.Records)
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			return fmt.Errorf("records %v vs %v", a.Records, b.Records)
		}
	}
	if len(a.Values) != len(b.Values) {
		return fmt.Errorf("values %v vs %v", a.Values, b.Values)
	}
	for i := range a.Values {
		if !a.Values[i].Equal(b.Values[i]) {
			return fmt.Errorf("values %v vs %v", a.Values, b.Values)
		}
	}
	if ac, bc := levelCells(a.Cells), levelCells(b.Cells); !slices.Equal(ac, bc) {
		return fmt.Errorf("cells %v vs %v", ac, bc)
	}
	return nil
}

// TestPlanExecutorArenaRace hammers one pinned table from 8 goroutines
// with every corpus query under both tracers, each result compared
// against a serial reference — proving pooled arena scratch never
// crosses concurrent executions. Run under -race (`make test` does).
func TestPlanExecutorArenaRace(t *testing.T) {
	tables := map[string]*table.Table{}
	var exps []expectation
	for _, tc := range diffCorpus {
		tab, ok := tables[tc.table]
		if !ok {
			tab = fixtureByName(t, tc.table)
			tables[tc.table] = tab
		}
		c, err := Compile(MustParse(tc.src), tab)
		if err != nil {
			t.Fatalf("Compile(%q): %v", tc.src, err)
		}
		exp := expectation{src: tc.src, compiled: c}
		traced, terr := c.ExecuteWith(tab, plan.Capture{})
		answer, aerr := c.ExecuteWith(tab, plan.Noop{})
		if (terr == nil) != (aerr == nil) {
			t.Fatalf("%s: tracer-dependent error: %v vs %v", tc.src, terr, aerr)
		}
		if terr != nil {
			exp.err = terr.Error()
		} else {
			exp.traced = snapshotResult(traced)
			exp.answer = snapshotResult(answer)
		}
		// The table is keyed per corpus entry; the race below needs the
		// matching table per expectation.
		exp.compiled = c
		exps = append(exps, exp)
	}
	tabFor := make([]*table.Table, len(exps))
	for i, tc := range diffCorpus {
		tabFor[i] = tables[tc.table]
	}

	const goroutines = 8
	const iters = 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				e := &exps[(g+i)%len(exps)]
				tab := tabFor[(g+i)%len(exps)]
				tr := plan.Tracer(plan.Noop{})
				want := e.answer
				if (g+i)%2 == 0 {
					tr = plan.Capture{}
					want = e.traced
				}
				got, err := e.compiled.ExecuteWith(tab, tr)
				if e.err != "" {
					if err == nil || err.Error() != e.err {
						errs <- fmt.Errorf("%s: error = %v, want %q", e.src, err, e.err)
						return
					}
					continue
				}
				if err != nil {
					errs <- fmt.Errorf("%s: %v", e.src, err)
					return
				}
				if derr := sameResults(want, got); derr != nil {
					errs <- fmt.Errorf("%s: %v", e.src, derr)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPlanPooledReuseStaysDifferential re-runs the full corpus many
// times through one goroutine so later executions land on warm pooled
// arenas, asserting answers, cells and errors stay identical to the
// legacy interpreter on every pass — the property behind the
// allocation-free rewrite.
func TestPlanPooledReuseStaysDifferential(t *testing.T) {
	for pass := 0; pass < 5; pass++ {
		for _, tc := range diffCorpus {
			tab := fixtureByName(t, tc.table)
			e := MustParse(tc.src)
			want, werr := oracle.Execute(e, tab)
			got, gerr := Execute(e, tab)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("pass %d %s: error divergence: %v vs %v", pass, tc.src, werr, gerr)
			}
			if werr != nil {
				continue
			}
			assertSameResult(t, want, got, true)
			fast, ferr := ExecuteAnswer(e, tab)
			if ferr != nil {
				t.Fatalf("pass %d %s: ExecuteAnswer: %v", pass, tc.src, ferr)
			}
			assertSameResult(t, want, fast, false)
		}
	}
}

// FuzzPlanDifferential fuzzes query strings through both executors
// under both tracers, with zone-map consultation forced (zoneExec) so
// every scan the plan path runs goes through the zone verdict
// layer. Any parseable, checkable query must produce identical
// denotations and witness cells on the plan path and the legacy
// interpreter, fail exactly when the interpreter fails and in the
// interpreter's words, and report every operator's cells to the tracer
// in ascending order.
func FuzzPlanDifferential(f *testing.F) {
	// Every corpus query is a seed, the counts and differences of literal
	// sets among them.
	for _, tc := range diffCorpus {
		f.Add(tc.src)
	}
	f.Add("sum(R[City].Country.Greece)")
	f.Add("max(R[Year].Country.Atlantis)")
	f.Add("count(Year>=1900)")
	f.Add("(Year>1896 u Year<=2008)")
	f.Add("avg(R[Score].Year>1896)")
	f.Add(`"nan"`) // a NaN answer: equal on both paths, unequal to itself
	f.Add("sub(R[Year].Country.Greece, 1900)")
	f.Add("sub(R[City].Country.China, 1)")
	f.Add("sub(max(R[Year].Country.Atlantis), min(R[City].Record))")
	f.Add("sub(R[City].Country.China, sum(R[Score].Year>2004))")
	tab := table.MustNew("olympics",
		[]string{"Year", "Country", "City", "Score"},
		[][]string{
			{"1896", "Greece", "Athens", "0.1"},
			{"1900", "France", "Paris", "0.2"},
			{"2004", "Greece", "Athens", "0.3"},
			{"2008", "China", "Beijing", "1e16"},
			{"2012", "UK", "London", "-1e16"},
			{"nan", "ſ", "Straße", "0.7"},             // NaN + Unicode folds: the fast-path guards
			{"2004-08-13", "Greece", "Athens", "0.5"}, // a date beside the NaN: one float rule reads both
			{"", "", "", ""},                          // empty cells: text the zones do not count
		})
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		want, werr := oracle.Execute(e, tab)
		got, gerr := executeOrdered(t, zoneExec, e, tab)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%q: error divergence: interpreter=%v plan=%v", src, werr, gerr)
		}
		fast, ferr := ExecuteIn(zoneExec, e, tab, plan.Noop{})
		if werr != nil {
			if ferr == nil || gerr.Error() != werr.Error() || ferr.Error() != werr.Error() {
				t.Fatalf("%q: error text diverged:\ninterpreter: %v\nplan:        %v\nanswer-only: %v", src, werr, gerr, ferr)
			}
			return
		}
		assertSameResult(t, want, got, true)
		if ferr != nil {
			t.Fatalf("%q: ExecuteAnswer: %v", src, ferr)
		}
		assertSameResult(t, want, fast, false)
		if fast.Cells.Len() != 0 {
			t.Errorf("%q: answer-only run computed %d cells", src, fast.Cells.Len())
		}
	})
}
