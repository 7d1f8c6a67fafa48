package plan

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nlexplain/internal/table"
)

// bigTestTable builds a deterministic n-row table: a low-cardinality
// text column, a wide-range numeric column, a low-cardinality numeric
// column, and a text column with a few non-numeric stragglers mixed
// into otherwise numeric data (so the non-indexable fallbacks are
// reachable).
func bigTestTable(tb testing.TB, n int) *table.Table {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	nations := []string{"Greece", "France", "China", "UK", "Brazil", "Fiji", "Tonga", "Samoa"}
	rows := make([][]string, n)
	for i := range rows {
		mixed := strconv.Itoa(rng.Intn(1000))
		if rng.Intn(512) == 0 {
			mixed = "n/a"
		}
		rows[i] = []string{
			nations[rng.Intn(len(nations))],
			strconv.Itoa(rng.Intn(1_000_000)),
			strconv.Itoa(1896 + 4*rng.Intn(40)),
			mixed,
		}
	}
	return table.MustNew("big", []string{"Nation", "Games", "Year", "Mixed"}, rows)
}

// serial and parallel build the two executors the differential tests
// compare: one that never forks, and one with eight workers that forks
// from 1024 rows. Each test runs under executors of its own.
func serial() *Exec   { return &Exec{Workers: 1} }
func parallel() *Exec { return &Exec{Workers: 8, ForkAt: 1024} }

// bigTestPlans enumerates one plan per parallel kernel (and a few
// compositions), all against bigTestTable's schema.
func bigTestPlans() map[string]Node {
	return map[string]Node{
		"compare_ne_entity":  &Compare{Col: 0, Cmp: "!=", V: table.ParseValue("Greece")},
		"compare_eq_fold":    eq(0, table.ParseValue("greece")),
		"compare_range_text": &Compare{Col: 3, Cmp: ">", V: table.ParseValue("500")},
		// A range and an entity inequality, conjoined as lambda DCS
		// conjoins them.
		"filter_and": &Intersect{
			L: &Compare{Col: 1, Cmp: ">", V: table.ParseValue("250000")},
			R: &Compare{Col: 0, Cmp: "!=", V: table.ParseValue("Fiji")},
		},
		"superlative_max": &Superlative{Col: 1, Max: true,
			Input: &Compare{Col: 1, Cmp: "<", V: table.ParseValue("900000")}},
		"superlative_min": &Superlative{Col: 1, Max: false,
			Input: &Compare{Col: 1, Cmp: ">", V: table.ParseValue("100000")}},
		"superlative_mixed_serial": &Superlative{Col: 3, Max: true, Input: &Scan{}},
		"intersect": &Intersect{
			L: &Compare{Col: 1, Cmp: ">", V: table.ParseValue("200000")},
			R: &Compare{Col: 2, Cmp: "<", V: table.ParseValue("1996")},
		},
		"project_col":   &ProjectCol{Col: 0, Input: &Scan{}},
		"project_wide":  &ProjectCol{Col: 1, Input: &Scan{}},
		"aggregate_sum": &Aggregate{Fn: "sum", Input: &ProjectCol{Col: 1, Input: &Scan{}}},
		"aggregate_avg": &Aggregate{Fn: "avg", Input: &ProjectCol{Col: 1, Input: &Scan{}}},
		"aggregate_min": &Aggregate{Fn: "min", Input: &ProjectCol{Col: 1, Input: &Scan{}}},
		"aggregate_max": &Aggregate{Fn: "max", Input: &ProjectCol{Col: 1, Input: &Scan{}}},
		"aggregate_err": &Aggregate{Fn: "sum", Input: &ProjectCol{Col: 3, Input: &Scan{}}},
		// Value projection groups its input by key: over a scattered row
		// set, and over a low-cardinality numeric column.
		"group_by":      &ProjectCol{Col: 0, Input: &Compare{Col: 1, Cmp: ">", V: table.ParseValue("250000")}},
		"group_by_year": &ProjectCol{Col: 2, Input: &Scan{}},
	}
}

// runPlan executes a plan in x with the Capture tracer so witness cells
// are computed, normalizing the error to its message (parallel and
// serial paths must agree on errors too).
func runPlan(tb testing.TB, x *Exec, n Node, t *table.Table) (*Val, string) {
	tb.Helper()
	v := new(Val)
	if err := RunIntoCtx(nil, x, v, n, t, Capture{}); err != nil {
		return nil, err.Error()
	}
	return v, ""
}

// TestBigTableParallelMatchesSerial is the kernel-level differential
// check: every parallel kernel must reproduce the serial path exactly —
// answers, row order, value order, witness cells, and errors.
func TestBigTableParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	tab := bigTestTable(t, 100_000)
	for name, n := range bigTestPlans() {
		t.Run(name, func(t *testing.T) {
			want, wantErr := runPlan(t, serial(), n, tab)
			got, gotErr := runPlan(t, parallel(), n, tab)
			if wantErr != gotErr {
				t.Fatalf("error mismatch: serial=%q parallel=%q", wantErr, gotErr)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("parallel result differs from serial\nserial:   %+v\nparallel: %+v", want, got)
			}
		})
	}
}

// TestBigTableKeyCodesGroupSpellings runs value projection — the kernel
// that reads key codes — and the entity comparisons, which read the
// posting lists of the same keys, over a column whose keys each have
// several spellings ("Fiji", "fiji", " FIJI "), so that the key codes
// are not the dictionary codes, and a column of as many spellings as
// rows: serial and forced-parallel must agree, and both must agree with
// grouping the cells by Value.Key.
func TestBigTableKeyCodesGroupSpellings(t *testing.T) {
	t.Parallel()
	const n = 70_000
	rng := rand.New(rand.NewSource(11))
	nations := []string{"Greece", "France", "China", "Fiji", "Tonga"}
	spell := []func(string) string{
		func(s string) string { return s },
		func(s string) string { return " " + s },
		func(s string) string { return strings.ToLower(s) },
		func(s string) string { return strings.ToUpper(s) + " " },
	}
	rows := make([][]string, n)
	var firstSeen []string
	counts := map[string]int{}
	for i := range rows {
		cell := spell[rng.Intn(len(spell))](nations[rng.Intn(len(nations))])
		rows[i] = []string{cell, "id" + strconv.Itoa(i)}
		key := table.ParseValue(cell).Key()
		if counts[key] == 0 {
			firstSeen = append(firstSeen, key)
		}
		counts[key]++
	}
	tab := table.MustNew("spellings", []string{"Nation", "ID"}, rows)
	if tab.NumKeys(0) != len(nations) || tab.NumKeys(1) != n {
		t.Fatalf("NumKeys = %d and %d, want %d and %d", tab.NumKeys(0), tab.NumKeys(1), len(nations), n)
	}
	plans := map[string]Node{
		"project":      &ProjectCol{Col: 0, Input: &Scan{}},
		"project_wide": &ProjectCol{Col: 1, Input: &Scan{}},
		"filter_eq":    eq(0, table.ParseValue("FIJI")),
		"filter_ne":    &Compare{Col: 0, Cmp: "!=", V: table.ParseValue("fiji")},
		"filter_none":  eq(0, table.ParseValue("Samoa")),
	}
	for _, nation := range nations {
		plans["count_"+nation] = &Aggregate{Fn: "count",
			Input: eq(0, table.ParseValue(strings.ToUpper(nation)))}
	}
	results := map[string]*Val{}
	for name, plan := range plans {
		want, wantErr := runPlan(t, serial(), plan, tab)
		got, gotErr := runPlan(t, parallel(), plan, tab)
		if wantErr != "" || gotErr != "" {
			t.Fatalf("%s: serial error %q, parallel error %q", name, wantErr, gotErr)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: parallel result differs from serial", name)
		}
		results[name] = got
	}
	var projected []string
	for _, v := range results["project"].Values {
		projected = append(projected, v.Key())
	}
	if !reflect.DeepEqual(projected, firstSeen) {
		t.Fatalf("projection keys %q, want first-appearance order %q", projected, firstSeen)
	}
	if got := len(results["project_wide"].Values); got != n {
		t.Fatalf("projection of the all-distinct column has %d values, want %d", got, n)
	}
	for _, nation := range nations {
		key := table.ParseValue(nation).Key()
		if c := results["count_"+nation].Values[0]; c.Num != float64(counts[key]) {
			t.Fatalf("count of %s = %v, want %d", key, c.Num, counts[key])
		}
	}
	if eq, ne := len(results["filter_eq"].Rows), len(results["filter_ne"].Rows); eq != counts["fiji"] || ne != n-counts["fiji"] {
		t.Fatalf("= fiji keeps %d rows and != fiji %d, want %d and %d", eq, ne, counts["fiji"], n-counts["fiji"])
	}
	if none := len(results["filter_none"].Rows); none != 0 {
		t.Fatalf("= an absent key keeps %d rows", none)
	}
}

// TestBigTableParallelDeterministic re-runs every plan several times
// under forced parallelism: morsel scheduling is nondeterministic, the
// merged output must not be.
func TestBigTableParallelDeterministic(t *testing.T) {
	t.Parallel()
	tab := bigTestTable(t, 80_000)
	x := parallel()
	for name, n := range bigTestPlans() {
		first, firstErr := runPlan(t, x, n, tab)
		for i := 0; i < 4; i++ {
			got, gotErr := runPlan(t, x, n, tab)
			if firstErr != gotErr || !reflect.DeepEqual(first, got) {
				t.Fatalf("%s: run %d differs from run 0", name, i+1)
			}
		}
	}
}

// TestBigTableParallelUsesMorsels guards against the parallel path
// silently regressing to serial: forced-parallel runs over a big table
// must claim morsels.
func TestBigTableParallelUsesMorsels(t *testing.T) {
	t.Parallel()
	tab := bigTestTable(t, 70_000)
	x := parallel()
	if _, errs := runPlan(t, x, &Compare{Col: 0, Cmp: "!=", V: table.ParseValue("Greece")}, tab); errs != "" {
		t.Fatal(errs)
	}
	if x.Morsels.Load() == 0 {
		t.Fatal("forced-parallel run claimed no morsels")
	}
}

// TestBigTableNaNAndTies exercises the merge edge cases: NaN literals
// (range semantics: always false), and superlatives whose extreme is
// achieved by many rows across morsel boundaries.
func TestBigTableNaNAndTies(t *testing.T) {
	t.Parallel()
	n := 90_000
	rows := make([][]string, n)
	for i := range rows {
		// Low-cardinality numeric column: every extreme is a huge tie
		// group spanning every morsel.
		rows[i] = []string{strconv.Itoa(i % 7), strconv.Itoa(i)}
	}
	tab := table.MustNew("ties", []string{"K", "Seq"}, rows)

	sup, errs := runPlan(t, parallel(), &Superlative{Col: 0, Max: true, Input: &Compare{Col: 1, Cmp: ">=", V: table.ParseValue("0")}}, tab)
	if errs != "" {
		t.Fatal(errs)
	}
	want, _ := runPlan(t, serial(), &Superlative{Col: 0, Max: true, Input: &Compare{Col: 1, Cmp: ">=", V: table.ParseValue("0")}}, tab)
	if !reflect.DeepEqual(sup, want) {
		t.Fatalf("tie-group superlative differs: parallel %d rows, serial %d rows", len(sup.Rows), len(want.Rows))
	}

	nan, errs := runPlan(t, parallel(), &Compare{Col: 1, Cmp: "<", V: table.NumberValue(math.NaN())}, tab)
	if errs != "" {
		t.Fatal(errs)
	}
	if len(nan.Rows) != 0 {
		t.Fatalf("NaN range matched %d rows, want 0", len(nan.Rows))
	}
}

// TestBigTableAggregateNaN pins min/max to the reference left fold
// where it is not associative: a NaN compares equal to everything, so
// it is never displaced and never displaces. One opening a later morsel
// must not mask that morsel's real extreme, and one in first position
// is the answer.
func TestBigTableAggregateNaN(t *testing.T) {
	t.Parallel()
	tab := bigTestTable(t, 8)
	nan := table.NumberValue(math.NaN())
	mid := make([]table.Value, 70_000)
	for i := range mid {
		mid[i] = table.NumberValue(float64(1000 + i))
	}
	mid[morselRows], mid[morselRows+1], mid[morselRows+2] = nan, table.NumberValue(1), table.NumberValue(1e9)
	first := append([]table.Value{nan}, mid...)
	for _, x := range []*Exec{serial(), parallel()} {
		for _, tc := range []struct {
			fn   string
			vals []table.Value
			want float64
		}{
			{"min", mid, 1}, {"max", mid, 1e9},
			{"min", first, math.NaN()}, {"max", first, math.NaN()},
		} {
			got, errs := runPlan(t, x, &Aggregate{Fn: tc.fn, Input: &Const{Values: tc.vals}}, tab)
			if errs != "" {
				t.Fatal(errs)
			}
			if g := got.Values[0].Num; g != tc.want && !(math.IsNaN(g) && math.IsNaN(tc.want)) {
				t.Errorf("%s with %d workers = %v, want %v", tc.fn, x.Workers, g, tc.want)
			}
		}
	}
}

// TestBigTableWorkerCountFlips races executions under the default Exec
// against a goroutine flipping its worker count. Each execution
// resolves the count once and sizes its per-worker state from the value
// its driver spawns with, so a flip landing mid-run can neither index
// that state out of range nor change the result.
func TestBigTableWorkerCountFlips(t *testing.T) {
	tab := bigTestTable(t, 70_000)
	// Both group by key codes with per-worker scratch, and both fork at
	// the default threshold.
	plans := []Node{bigTestPlans()["project_wide"], bigTestPlans()["group_by_year"]}
	want := make([]Val, len(plans))
	for i, n := range plans {
		if err := RunIntoCtx(nil, serial(), &want[i], n, tab, Noop{}); err != nil {
			t.Fatal(err)
		}
	}
	defer SetExecWorkers(SetExecWorkers(8))
	stop := make(chan struct{})
	var flipper, runners sync.WaitGroup
	flipper.Add(1)
	go func() {
		defer flipper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				SetExecWorkers(2 + 6*(i&1))
				runtime.Gosched()
			}
		}
	}()
	for g := 0; g < 4; g++ {
		runners.Add(1)
		go func(g int) {
			defer runners.Done()
			for i := 0; i < 16; i++ {
				p := (g + i) % len(plans)
				var got Val
				if err := RunIntoCtx(nil, nil, &got, plans[p], tab, Noop{}); err != nil {
					t.Error(err)
				} else if !reflect.DeepEqual(want[p], got) {
					t.Errorf("plan %d differs from the one-worker result", p)
				}
			}
		}(g)
	}
	runners.Wait()
	close(stop)
	flipper.Wait()
}

// TestBigTableCtxCancel verifies both cancellation surfaces: a
// pre-canceled context fails fast, and a deadline firing mid-scan
// aborts the run with the context error.
func TestBigTableCtxCancel(t *testing.T) {
	t.Parallel()
	tab := bigTestTable(t, 120_000)
	n := &Aggregate{Fn: "sum", Input: &ProjectCol{Col: 1, Input: &Scan{}}}

	for mode, x := range map[string]*Exec{"serial": serial(), "parallel": parallel()} {
		t.Run(mode, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			var out Val
			if err := RunIntoCtx(ctx, x, &out, n, tab, Noop{}); err != context.Canceled {
				t.Fatalf("pre-canceled run: err = %v, want context.Canceled", err)
			}

			// A deadline that fires mid-run: loop until the race lands
			// inside the execution window at least once.
			deadline := time.Now().Add(2 * time.Second)
			for time.Now().Before(deadline) {
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Microsecond)
				err := RunIntoCtx(ctx, x, &out, n, tab, Noop{})
				cancel()
				if err == context.DeadlineExceeded {
					return
				}
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
			}
			t.Skip("scan always completed before the deadline fired")
		})
	}
}

// TestBigTableConfigRoundTrip pins how an Exec's settings resolve:
// zero fields take the defaults, the fork gate composes threshold and
// workers, and SetExecWorkers acts on the default Exec alone.
func TestBigTableConfigRoundTrip(t *testing.T) {
	if c := new(Exec).config(0); c.workers != runtime.GOMAXPROCS(0) || c.threshold != DefaultParallelThreshold {
		t.Fatalf("zero Exec resolves to %+v", c)
	}
	if x := (&Exec{Workers: 8, ForkAt: 1000}); !x.Forks(1000) || x.Forks(999) {
		t.Fatal("Forks threshold boundary wrong")
	}
	if (&Exec{Workers: 1}).Forks(1 << 30) {
		t.Fatal("Forks with 1 worker should be false")
	}
	defer SetExecWorkers(SetExecWorkers(3))
	if got := SetExecWorkers(5); got != 3 {
		t.Fatalf("SetExecWorkers returned %d, want 3", got)
	}
	if w := defaultExec.config(0).workers; w != 5 {
		t.Fatalf("default Exec resolves %d workers, want 5", w)
	}
	if w := new(Exec).config(0).workers; w != runtime.GOMAXPROCS(0) {
		t.Fatalf("SetExecWorkers reached another Exec: %d workers", w)
	}
}

// TestBigTableMorselObserver verifies morsel durations reach the
// Exec's Morsel hook, one per morsel it counts.
func TestBigTableMorselObserver(t *testing.T) {
	t.Parallel()
	tab := bigTestTable(t, 70_000)
	// The hook fires from every worker goroutine concurrently, so the
	// counter must be atomic (this is the contract real hooks like the
	// engine's latency histogram already satisfy).
	var n atomic.Uint64
	x := parallel()
	x.Morsel = func(time.Duration) { n.Add(1) }
	if _, errs := runPlan(t, x, &ProjectCol{Col: 0, Input: &Scan{}}, tab); errs != "" {
		t.Fatal(errs)
	}
	if n.Load() == 0 || n.Load() != x.Morsels.Load() {
		t.Fatalf("hook saw %d morsels, the Exec counted %d", n.Load(), x.Morsels.Load())
	}
}

// ---- benchmarks (CI runs these with -cpu 1,4) ----

func benchPlans() []struct {
	name string
	n    Node
} {
	return []struct {
		name string
		n    Node
	}{
		{"compare_ne", &Compare{Col: 0, Cmp: "!=", V: table.ParseValue("Greece")}},
		{"filter_and", &Intersect{
			L: &Compare{Col: 1, Cmp: ">", V: table.ParseValue("250000")},
			R: &Compare{Col: 0, Cmp: "!=", V: table.ParseValue("Fiji")},
		}},
		{"superlative", &Superlative{Col: 1, Max: true,
			Input: &Compare{Col: 1, Cmp: "<", V: table.ParseValue("900000")}}},
		{"aggregate_sum", &Aggregate{Fn: "sum", Input: &ProjectCol{Col: 1, Input: &Scan{}}}},
		{"project_col", &ProjectCol{Col: 0, Input: &Scan{}}},
	}
}

// BenchmarkBigTableSerial measures the serial kernels on a 256K-row
// table; BenchmarkBigTableParallel the morsel path with 8 workers.
// Comparing the two at -cpu 4 shows the parallel win; at -cpu 1 it
// bounds the morsel overhead.
func BenchmarkBigTableSerial(b *testing.B) { benchBigTable(b, serial()) }

func BenchmarkBigTableParallel(b *testing.B) { benchBigTable(b, parallel()) }

func benchBigTable(b *testing.B, x *Exec) {
	tab := bigTestTable(b, 1<<18)
	for _, bp := range benchPlans() {
		b.Run(bp.name, func(b *testing.B) {
			var out Val
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := RunIntoCtx(nil, x, &out, bp.n, tab, Noop{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
