package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"nlexplain/internal/metric"
	"nlexplain/internal/table"
)

// olympics is the Figure 1 running example table.
func olympics(t *testing.T) *table.Table {
	t.Helper()
	tbl, err := table.New("olympics",
		[]string{"Year", "City", "Country", "Nations"},
		[][]string{
			{"1896", "Athens", "Greece", "14"},
			{"1900", "Paris", "France", "24"},
			{"1904", "St. Louis", "USA", "12"},
			{"2004", "Athens", "Greece", "201"},
			{"2008", "Beijing", "China", "204"},
			{"2012", "London", "UK", "204"},
		})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(Options{CacheSize: 64, Workers: 4})
	e.RegisterTable(olympics(t))
	return e
}

// counter reads one counter or gauge off the engine's registry by its
// canonical dotted name, the way GET /metrics carries it.
func counter(t testing.TB, e *Engine, name string) uint64 {
	t.Helper()
	m, _ := e.Metrics().Get(name)
	switch v := m.(type) {
	case *metric.Counter:
		return v.Count()
	case *metric.CounterFunc:
		return v.Count()
	case *metric.GaugeFunc:
		return uint64(v.Value())
	}
	t.Fatalf("registry has no counter or gauge %q", name)
	return 0
}

func TestExplainPipeline(t *testing.T) {
	e := newTestEngine(t)
	ex, err := e.Explain(context.Background(), "olympics", "max(R[Year].Country.Greece)")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Utterance == "" {
		t.Error("empty utterance")
	}
	if ex.Result != "2004" {
		t.Errorf("Result = %q, want 2004", ex.Result)
	}
	if ex.Provenance.Output.Len() == 0 || ex.Provenance.Execution.Len() == 0 || ex.Provenance.Columns.Len() == 0 {
		t.Errorf("provenance levels empty: %+v", ex.Provenance)
	}
	if got := ex.Provenance.HeaderAggrs["Year"]; got != "max" {
		t.Errorf("HeaderAggrs[Year] = %q, want max", got)
	}
	if !strings.Contains(ex.Table.Headers[0], "Year") {
		t.Errorf("Grid headers = %v", ex.Table.Headers)
	}
	// The cached grid is a view of the snapshot; WithCells renders its
	// cells.
	marked := 0
	for _, row := range ex.Table.WithCells().Cells {
		for _, c := range row {
			if c.Marking != "" {
				marked++
			}
		}
	}
	if marked == 0 {
		t.Error("no highlighted cells in grid")
	}
	if ex.SQL == "" {
		t.Error("expected SQL translation for max query")
	}
}

func TestCacheHitMiss(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	const q = "count(Country.Greece)"

	if _, err := e.Explain(ctx, "olympics", q); err != nil {
		t.Fatal(err)
	}
	if h, m := counter(t, e, "engine.cache.result.hits"), counter(t, e, "engine.cache.result.misses"); m != 1 || h != 0 {
		t.Fatalf("after first explain: hits=%d misses=%d, want 0/1", h, m)
	}
	if n := counter(t, e, "engine.executions"); n != 1 {
		t.Fatalf("engine.executions = %d, want 1", n)
	}

	ex1, err := e.Explain(ctx, "olympics", q)
	if err != nil {
		t.Fatal(err)
	}
	if n := counter(t, e, "engine.cache.result.hits"); n != 1 {
		t.Errorf("engine.cache.result.hits = %d, want 1", n)
	}
	if n := counter(t, e, "engine.executions"); n != 1 {
		t.Errorf("engine.executions = %d, want 1 (cached result must not re-execute)", n)
	}
	ex2, _, _ := e.ExplainCached(ctx, "olympics", q)
	if ex1 != ex2 {
		t.Error("cache should return the shared explanation instance")
	}
}

func TestReRegisterInvalidatesCache(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	const q = "max(R[Year].Record)"
	ex, err := e.Explain(ctx, "olympics", q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Result != "2012" {
		t.Fatalf("Result = %q, want 2012", ex.Result)
	}

	// Replace the table under the same name with new content: cached
	// results must not leak across versions.
	updated, err := table.New("olympics",
		[]string{"Year", "City", "Country", "Nations"},
		[][]string{{"2016", "Rio", "Brazil", "207"}})
	if err != nil {
		t.Fatal(err)
	}
	info, err := e.RegisterTable(updated)
	if err != nil {
		t.Fatalf("RegisterTable: %v", err)
	}
	if _, v, _ := e.Table("olympics"); v != info.Version {
		t.Fatalf("registry version mismatch")
	}
	ex2, err := e.Explain(ctx, "olympics", q)
	if err != nil {
		t.Fatal(err)
	}
	if ex2.Result != "2016" {
		t.Errorf("Result after re-register = %q, want 2016", ex2.Result)
	}
	if ex2.Version == ex.Version {
		t.Error("version unchanged after content change")
	}
}

func TestExplainErrors(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	if _, err := e.Explain(ctx, "nope", "max(R[Year].Record)"); err == nil {
		t.Error("expected unknown-table error")
	}
	if _, err := e.Explain(ctx, "olympics", "max(((("); err == nil {
		t.Error("expected parse error")
	}
	if _, err := e.Explain(ctx, "olympics", "max(R[Year].NoSuchColumn.x)"); err == nil {
		t.Error("expected typecheck/exec error")
	}
	if n := counter(t, e, "engine.errors"); n != 3 {
		t.Errorf("engine.errors = %d, want 3", n)
	}
}

func TestContextCancellation(t *testing.T) {
	e := newTestEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Explain(ctx, "olympics", "sum(R[Nations].Record)")
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if _, err := e.ParseQuestion(ctx, "olympics", "which year", 3); !errors.Is(err, context.Canceled) {
		t.Errorf("ParseQuestion err = %v, want context.Canceled", err)
	}
	// Client cancellations are not deadline pressure: the timeout
	// counter must stay clean for alerting.
	if n := counter(t, e, "engine.timeouts"); n != 0 {
		t.Errorf("engine.timeouts = %d after cancellations, want 0", n)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := e.Explain(dctx, "olympics", "count(City.Athens)"); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
	if n := counter(t, e, "engine.timeouts"); n != 1 {
		t.Errorf("engine.timeouts = %d after deadline expiry, want 1", n)
	}
}

func TestBatchTimeout(t *testing.T) {
	e := newTestEngine(t)
	// An already-expired deadline must fail the whole batch with
	// deadline errors, not hang.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res := e.ExplainBatch(ctx, []Request{
		{Table: "olympics", Query: "max(R[Year].Record)"},
		{Table: "olympics", Query: "min(R[Year].Record)"},
	})
	for i, r := range res {
		if !errors.Is(r.Err, context.DeadlineExceeded) && !errors.Is(r.Err, context.Canceled) {
			t.Errorf("result %d: err = %v, want deadline error", i, r.Err)
		}
	}
}

func TestLoadShedding(t *testing.T) {
	e := New(Options{CacheSize: 16, Workers: 1, MaxPending: 2})
	e.RegisterTable(olympics(t))

	// One computation runs and a second waits for the slot it holds:
	// the pending set (capacity 2) is full.
	release := holdSlot(t, e, callOps[0])
	waiter := make(chan error, 1)
	go func() {
		_, err := e.Explain(context.Background(), "olympics", "count(City.Athens)")
		waiter <- err
	}()
	waitFor(t, "the second query to join the pending set", func() bool { return e.pending.Load() == 2 })

	// A third distinct query must be shed immediately, not parked.
	if _, err := e.Explain(context.Background(), "olympics", "max(R[Year].Record)"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if n := counter(t, e, "engine.sheds"); n != 1 {
		t.Errorf("engine.sheds = %d, want 1", n)
	}

	// Freeing the slot lets the waiter compute, and once both callers
	// are back the pending set is empty: the next query is served.
	release()
	if err := <-waiter; err != nil {
		t.Fatalf("the waiting query: %v", err)
	}
	if n := e.pending.Load(); n != 0 {
		t.Errorf("%d computations pending with every caller back, want 0", n)
	}
	if _, err := e.Explain(context.Background(), "olympics", "count(Country.Greece)"); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

func TestExplainDeadlineClampedToEngineCap(t *testing.T) {
	// QueryTimeout is a hard cap: a caller context with a deadline far
	// beyond it must still be bounded by the engine.
	e := New(Options{CacheSize: 16, Workers: 2, QueryTimeout: time.Nanosecond})
	e.RegisterTable(olympics(t))
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if _, err := e.Explain(ctx, "olympics", "count(City.Athens)"); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded (caller deadline clamped)", err)
	}
	wantTimeoutOnly(t, e)
}

// wantTimeoutOnly requires the one failure so far to be booked as a
// timeout and not as an error.
func wantTimeoutOnly(t *testing.T, e *Engine) {
	t.Helper()
	if timeouts, errs := counter(t, e, "engine.timeouts"), counter(t, e, "engine.errors"); timeouts != 1 || errs != 0 {
		t.Errorf("engine.timeouts = %d, engine.errors = %d, want 1 and 0", timeouts, errs)
	}
}

func TestBatchTimeoutClampedToEngineCap(t *testing.T) {
	// A client-supplied per-query timeout must not exceed the
	// operator's QueryTimeout: with the engine capped at 1ns, a
	// request asking for a minute still times out immediately on a
	// cold query.
	e := New(Options{CacheSize: 16, Workers: 2, QueryTimeout: time.Nanosecond})
	e.RegisterTable(olympics(t))
	res := e.ExplainBatch(context.Background(), []Request{
		{Table: "olympics", Query: "count(City.Athens)", Timeout: time.Minute},
	})
	if !errors.Is(res[0].Err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded (clamped)", res[0].Err)
	}
	wantTimeoutOnly(t, e)
}

// olympicsQueries are eight distinct queries over the olympics table.
var olympicsQueries = []string{
	"max(R[Year].Country.Greece)",
	"min(R[Year].Record)",
	"count(Country.Greece)",
	"sum(R[Nations].Record)",
	"avg(R[Nations].Record)",
	"max(R[Year].Record)",
	"count(City.Athens)",
	"min(R[Nations].Country.USA)",
}

func TestExplainBatchConcurrent(t *testing.T) {
	e := newTestEngine(t)
	queries := olympicsQueries
	reqs := make([]Request, 0, 2*len(queries))
	for range 2 { // duplicates within one batch exercise cache + pool
		for _, q := range queries {
			reqs = append(reqs, Request{Table: "olympics", Query: q})
		}
	}
	res := e.ExplainBatch(context.Background(), reqs)
	if len(res) != len(reqs) {
		t.Fatalf("got %d results, want %d", len(res), len(reqs))
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("request %d (%s): %v", i, reqs[i].Query, r.Err)
		}
		if r.Explanation == nil || r.Explanation.Utterance == "" {
			t.Fatalf("request %d: empty explanation", i)
		}
		if r.Explanation.Query == "" {
			t.Fatalf("request %d: empty query echo", i)
		}
	}
	before := counter(t, e, "engine.executions")
	if before != uint64(len(queries)) {
		t.Errorf("engine.executions = %d, want %d (a query computes once while its value stays cached)", before, len(queries))
	}

	// A second identical batch must be answered fully from cache.
	res2 := e.ExplainBatch(context.Background(), reqs)
	for i, r := range res2 {
		if r.Err != nil {
			t.Fatalf("repeat request %d: %v", i, r.Err)
		}
		if !r.Cached {
			t.Errorf("repeat request %d not served from cache", i)
		}
	}
	if after := counter(t, e, "engine.executions"); after != before {
		t.Errorf("repeat batch executed %d new queries, want 0", after-before)
	}
	if counter(t, e, "engine.cache.result.hits") == 0 {
		t.Error("expected cache hits > 0 on repeated batch")
	}
}

func TestConcurrentMixedLoad(t *testing.T) {
	// Hammer one engine from many goroutines mixing registration,
	// explains and NL parses; run under -race in CI.
	e := newTestEngine(t)
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			for j := range 10 {
				switch (i + j) % 3 {
				case 0:
					if _, err := e.Explain(ctx, "olympics", "max(R[Year].Record)"); err != nil {
						t.Errorf("explain: %v", err)
					}
				case 1:
					name := fmt.Sprintf("t%d", i)
					if _, err := e.RegisterRaw(name, []string{"A"}, [][]string{{"1"}, {"2"}}); err != nil {
						t.Errorf("register: %v", err)
					}
					if _, err := e.Explain(ctx, name, "count(A.1)"); err != nil {
						t.Errorf("explain %s: %v", name, err)
					}
				default:
					if _, err := e.ParseQuestion(ctx, "olympics", "which country had the most nations", 3); err != nil {
						t.Errorf("parse: %v", err)
					}
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestParseQuestion(t *testing.T) {
	e := newTestEngine(t)
	cands, err := e.ParseQuestion(context.Background(), "olympics", "in which year were the olympics held in Athens?", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if len(cands) > 5 {
		t.Fatalf("topK not applied: got %d", len(cands))
	}
	for i, c := range cands {
		if c.Rank != i+1 {
			t.Errorf("candidate %d rank = %d", i, c.Rank)
		}
		if c.Query == "" || c.Utterance == "" {
			t.Errorf("candidate %d incomplete: %+v", i, c)
		}
	}
	if n := counter(t, e, "engine.parses"); n != 1 {
		t.Errorf("engine.parses = %d, want 1", n)
	}
}

func TestParseQuestionTopKAboveParserDefault(t *testing.T) {
	e := newTestEngine(t)
	const question = "which country had the most nations"
	small, err := e.ParseQuestion(context.Background(), "olympics", question, 0)
	if err != nil {
		t.Fatal(err)
	}
	big, err := e.ParseQuestion(context.Background(), "olympics", question, 50)
	if err != nil {
		t.Fatal(err)
	}
	// The default is the paper's display size (7); an explicit larger
	// topK must reach deeper into the candidate pool.
	if len(small) != 7 {
		t.Errorf("default topK returned %d candidates, want 7", len(small))
	}
	if len(big) <= len(small) {
		t.Errorf("topK=50 returned %d candidates, want more than the default %d", len(big), len(small))
	}
}

// TestParseQuestionDeepRanksHonorDeadline: the parse cache keeps the
// default depth only, so a deeper top_k generates the whole pool again,
// admitted as a cache miss is. With the default depth cached, an
// expired deadline still serves it, and a deeper top_k fails at
// admission as one timeout instead of generating the pool.
func TestParseQuestionDeepRanksHonorDeadline(t *testing.T) {
	e := newTestEngine(t)
	const question = "which country had the most nations"
	if _, err := e.ParseQuestion(context.Background(), "olympics", question, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if cands, err := e.ParseQuestion(ctx, "olympics", question, 0); err != nil || len(cands) != 7 {
		t.Fatalf("default depth on an expired deadline: %d candidates, err = %v", len(cands), err)
	}
	if _, err := e.ParseQuestion(ctx, "olympics", question, 1000); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("top_k 1000 on an expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
	wantTimeoutOnly(t, e)
}

// TestParseQuestionDeepIsShed: a top_k past the cached depth takes the
// admission a cache miss does. On a full pending set it is shed with
// ErrOverloaded, booked once, and leaves nothing in the parse cache;
// once the set drains it is served, and still caches nothing.
func TestParseQuestionDeepIsShed(t *testing.T) {
	e := New(Options{CacheSize: 16, Workers: 1, MaxPending: 2})
	e.RegisterTable(olympics(t))
	const question = "which country had the most nations"

	release := holdSlot(t, e, callOps[0])
	waiter := make(chan error, 1)
	go func() {
		_, err := e.Explain(context.Background(), "olympics", "count(City.Athens)")
		waiter <- err
	}()
	waitFor(t, "the second query to join the pending set", func() bool { return e.pending.Load() == 2 })

	if _, err := e.ParseQuestion(context.Background(), "olympics", question, 50); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("top_k 50 on a full pending set: err = %v, want ErrOverloaded", err)
	}
	if n := counter(t, e, "engine.sheds"); n != 1 {
		t.Errorf("engine.sheds = %d, want 1", n)
	}
	release()
	if err := <-waiter; err != nil {
		t.Fatalf("the waiting query: %v", err)
	}
	if cands, err := e.ParseQuestion(context.Background(), "olympics", question, 50); err != nil || len(cands) <= 7 {
		t.Fatalf("top_k 50 on a drained pending set: %d candidates, err = %v", len(cands), err)
	}
	if n := counter(t, e, "engine.cache.parse.size"); n != 0 {
		t.Errorf("deep parses left %d parse-cache entries, want 0", n)
	}
	if n := e.pending.Load(); n != 0 {
		t.Errorf("%d computations pending with every caller back, want 0", n)
	}
}

func TestParseQuestionInvalidatedByReRegister(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	const question = "in which year were the olympics held in Athens?"
	before, err := e.ParseQuestion(ctx, "olympics", question, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 || !strings.Contains(before[0].Result, "1896") {
		t.Fatalf("candidates before re-register = %+v", before)
	}

	// Same name, different content: memoized candidate pools from the
	// old rows must not survive.
	updated, err := table.New("olympics",
		[]string{"Year", "City", "Country", "Nations"},
		[][]string{{"2032", "Athens", "Greece", "210"}})
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterTable(updated)
	after, err := e.ParseQuestion(ctx, "olympics", question, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) == 0 || !strings.Contains(after[0].Result, "2032") {
		t.Errorf("candidates after re-register still reflect old rows: %+v", after)
	}
}

func TestLRUEviction(t *testing.T) {
	a, b, k := cacheKey{"v", "a"}, cacheKey{"v", "b"}, cacheKey{"v", "c"}
	c := newLRU[int](2)
	c.put(a, 1)
	c.put(b, 2)
	if _, ok := c.get(a); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.put(k, 3)
	if _, ok := c.get(b); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.get(a); !ok {
		t.Error("a should have survived")
	}
	if _, ok := c.get(k); !ok {
		t.Error("c should be present")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	c.put(k, 4) // overwrite keeps size
	if v, _ := c.get(k); v != 4 {
		t.Errorf("c = %v, want 4", v)
	}
	if c.len() != 2 {
		t.Errorf("len after overwrite = %d, want 2", c.len())
	}
	c.put(cacheKey{"w", "a"}, 5) // evicts a, the least recently used
	c.purgeVersion("v")
	if _, ok := c.get(cacheKey{"w", "a"}); !ok || c.len() != 1 {
		t.Errorf("purging version v left %d entries, want only w's", c.len())
	}
}

func TestEngineExplainResultCacheEviction(t *testing.T) {
	e := New(Options{CacheSize: 2, Workers: 2})
	e.RegisterTable(olympics(t))
	ctx := context.Background()
	for _, q := range []string{"max(R[Year].Record)", "min(R[Year].Record)", "sum(R[Nations].Record)"} {
		if _, err := e.Explain(ctx, "olympics", q); err != nil {
			t.Fatal(err)
		}
	}
	// max(Year) was evicted by the third insert: re-explaining must
	// miss and recompute.
	before := counter(t, e, "engine.executions")
	if _, err := e.Explain(ctx, "olympics", "max(R[Year].Record)"); err != nil {
		t.Fatal(err)
	}
	if after := counter(t, e, "engine.executions"); after != before+1 {
		t.Errorf("evicted query did not recompute: executions %d -> %d", before, after)
	}
}
