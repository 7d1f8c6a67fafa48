package engine

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"nlexplain/internal/table"
)

// TestStoreReplacePurgesStaleEntries is the regression test for the
// replace-leaves-stale-entries bug: before the versioned store,
// re-registering a name left the old version's result/answer/parse
// entries in the LRUs until natural eviction. The store's invalidation
// hook must purge them synchronously.
func TestStoreReplacePurgesStaleEntries(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	const q = "max(R[Year].Country.Greece)"
	if _, err := e.Explain(ctx, "olympics", q); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.ExplainAnswer(ctx, "olympics", "count(Record)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ParseQuestion(ctx, "olympics", "which year did greece host", 0); err != nil {
		t.Fatal(err)
	}
	for _, cache := range []string{"result", "answer", "parse"} {
		if n := counter(t, e, "engine.cache."+cache+".size"); n != 1 {
			t.Fatalf("warm %s cache holds %d entries, want 1", cache, n)
		}
	}

	// Replace the table under the same name: every version-scoped
	// entry must be gone immediately, before any new query runs.
	updated, err := table.New("olympics",
		[]string{"Year", "City", "Country", "Nations"},
		[][]string{{"2016", "Rio", "Brazil", "207"}})
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterTable(updated)

	for _, cache := range []string{"result", "answer", "parse"} {
		if n := counter(t, e, "engine.cache."+cache+".size"); n != 0 {
			t.Errorf("%s cache holds %d stale entries after replace, want 0", cache, n)
		}
	}
}

// TestStoreIdempotentReRegisterKeepsCaches is the counterpart of the
// purge regression test: re-registering identical content keeps the
// same version, so the still-valid cache entries must survive and the
// next query must hit.
func TestStoreIdempotentReRegisterKeepsCaches(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	const q = "count(Country.Greece)"
	if _, err := e.Explain(ctx, "olympics", q); err != nil {
		t.Fatal(err)
	}
	info, err := e.RegisterTable(olympics(t)) // same content, same version
	if err != nil {
		t.Fatalf("RegisterTable: %v", err)
	}
	if n := counter(t, e, "engine.cache.result.size"); n != 1 {
		t.Fatalf("idempotent re-register purged caches: result cache holds %d entries, want 1", n)
	}
	_, cached, err := e.ExplainCached(ctx, "olympics", q)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("query after idempotent re-register missed the cache")
	}
	if _, v, _ := e.Table("olympics"); v != info.Version {
		t.Error("version changed on identical content")
	}
}

// TestStoreMutationLifecycle drives append and drop through the engine:
// each mutation bumps the generation, changes the version, purges the
// displaced version's caches and serves fresh results immediately.
func TestStoreMutationLifecycle(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	const q = "count(Record)"

	ex, err := e.Explain(ctx, "olympics", q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Result != "6" {
		t.Fatalf("Result = %q, want 6", ex.Result)
	}

	info, err := e.AppendRows("olympics", [][]string{{"2016", "Rio", "Brazil", "207"}})
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 7 {
		t.Fatalf("rows after append = %d, want 7", info.Rows)
	}
	if info.Version == ex.Version {
		t.Fatal("append did not change the version")
	}
	if n := counter(t, e, "engine.cache.result.size"); n != 0 {
		t.Fatalf("result cache holds %d entries after append, want 0", n)
	}

	ex2, err := e.Explain(ctx, "olympics", q)
	if err != nil {
		t.Fatal(err)
	}
	if ex2.Result != "7" {
		t.Errorf("Result after append = %q, want 7 (stale cached result?)", ex2.Result)
	}
	if ex2.Version != info.Version {
		t.Errorf("explanation version %s != appended version %s", ex2.Version, info.Version)
	}

	if _, err := e.AppendRows("nope", [][]string{{"a", "b", "c", "d"}}); !errors.Is(err, ErrUnknownTable) {
		t.Errorf("AppendRows on unknown table: err = %v, want ErrUnknownTable", err)
	}
	if _, err := e.AppendRows("olympics", [][]string{{"too", "short"}}); err == nil {
		t.Error("ragged append succeeded")
	}

	dropped, ok, err := e.DropTable("olympics")
	if err != nil || !ok || dropped.Name != "olympics" {
		t.Fatalf("DropTable = %+v, %v", dropped, ok)
	}
	if size, tables := counter(t, e, "engine.cache.result.size"), counter(t, e, "store.tables"); size != 0 || tables != 0 {
		t.Fatalf("after drop: engine.cache.result.size = %d, store.tables = %d, want 0 and 0", size, tables)
	}
	if _, err := e.Explain(ctx, "olympics", q); !errors.Is(err, ErrUnknownTable) {
		t.Errorf("explain after drop: err = %v, want ErrUnknownTable", err)
	}
	if _, ok, _ := e.DropTable("olympics"); ok {
		t.Error("second drop succeeded")
	}
}

// TestStoreStatsSurfaced checks the store's series ride along on the
// engine's registry (and therefore on GET /metrics).
func TestStoreStatsSurfaced(t *testing.T) {
	e := newTestEngine(t)
	if n := counter(t, e, "store.tables"); n != 1 {
		t.Errorf("store.tables = %d, want 1 (store catalog size)", n)
	}
	if n := counter(t, e, "store.bytes"); n == 0 {
		t.Error("store.bytes = 0, want > 0")
	}
	gen := counter(t, e, "store.generation")
	if gen == 0 {
		t.Error("store.generation = 0, want the registration's generation")
	}
	if _, err := e.AppendRows("olympics", [][]string{{"2016", "Rio", "Brazil", "207"}}); err != nil {
		t.Fatal(err)
	}
	if n := counter(t, e, "store.generation"); n <= gen {
		t.Errorf("store.generation = %d after append, want > %d", n, gen)
	}
}

// TestStoreChurnSnapshotIsolation is the concurrency contract of the
// versioned store, meant for the race detector: queries racing
// AppendRows/RegisterTable observe either the old or the new snapshot,
// never a torn state — every (version, result) pair seen by any reader
// is internally consistent — and once the churn settles, a query
// serves the final version, never a stale cached result.
func TestStoreChurnSnapshotIsolation(t *testing.T) {
	e := New(Options{CacheSize: 256, Workers: 4})
	cols := []string{"Year", "City", "Country", "Nations"}
	row := func(i int) []string {
		return []string{strconv.Itoa(1896 + 4*i), "City" + strconv.Itoa(i), "Nation" + strconv.Itoa(i%5), strconv.Itoa(i)}
	}
	seed := [][]string{row(0), row(1)}
	if _, err := e.RegisterRaw("churn", cols, seed); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	const q = "count(Record)"
	// byVersion records every result observed per version: a version
	// must always denote the same row count, or a snapshot tore.
	var byVersion sync.Map
	observe := func(version, result string) {
		if prev, loaded := byVersion.LoadOrStore(version, result); loaded && prev != result {
			t.Errorf("version %s served both %q and %q", version, prev, result)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if ex, err := e.Explain(ctx, "churn", q); err == nil {
					observe(ex.Version, ex.Result)
				}
				if ans, _, err := e.ExplainAnswer(ctx, "churn", q); err == nil {
					observe(ans.Version, ans.Result)
				}
			}
		}()
	}

	const mutations = 60
	var finalInfo TableInfo
	rows := seed
	for i := range mutations {
		switch i % 3 {
		case 0, 1:
			extra := [][]string{row(len(rows))}
			rows = append(rows, extra...)
			info, err := e.AppendRows("churn", extra)
			if err != nil {
				t.Fatal(err)
			}
			finalInfo = info
		default:
			rows = [][]string{row(i), row(i + 1)}
			info, err := e.RegisterRaw("churn", cols, rows)
			if err != nil {
				t.Fatal(err)
			}
			finalInfo = info
		}
	}
	close(stop)
	wg.Wait()

	// Post-churn: the served result must come from the final snapshot,
	// and its row count must match what the mutator installed last.
	ex, err := e.Explain(ctx, "churn", q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Version != finalInfo.Version {
		t.Errorf("post-churn version %s, want final %s", ex.Version, finalInfo.Version)
	}
	if want := fmt.Sprintf("%d", len(rows)); ex.Result != want {
		t.Errorf("post-churn result %q, want %q", ex.Result, want)
	}
	if n := counter(t, e, "store.generation"); n < uint64(mutations) {
		t.Errorf("store.generation = %d after %d mutations", n, mutations)
	}
}
