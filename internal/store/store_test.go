package store

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"nlexplain/internal/metric"
	"nlexplain/internal/table"
)

// series reads one of the store's counters or gauges by its canonical
// dotted name, off a registry the store just registered itself on the
// way the engine's root carries it.
func series(t testing.TB, st *Store, name string) int64 {
	t.Helper()
	root := metric.NewRegistry()
	st.RegisterMetrics(root.Sub("store"))
	m, _ := root.Get(name)
	switch v := m.(type) {
	case *metric.GaugeFunc:
		return v.Value()
	case *metric.CounterFunc:
		return int64(v.Count())
	}
	t.Fatalf("store registers no counter or gauge %q", name)
	return 0
}

func mustTable(t *testing.T, name string, n int) *table.Table {
	t.Helper()
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{"nation" + strconv.Itoa(i%7), strconv.Itoa(1896 + 4*i), strconv.Itoa(i * 3)}
	}
	tab, err := table.New(name, []string{"Nation", "Year", "Games"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestStoreRegisterGetDrop(t *testing.T) {
	st := New(Options{})
	if _, ok := st.Get("nope"); ok {
		t.Fatal("Get on empty store succeeded")
	}
	snap, err := st.Register(mustTable(t, "a", 4))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if snap.Gen() == 0 {
		t.Fatal("generation not assigned")
	}
	got, ok := st.Get("a")
	if !ok || got != snap {
		t.Fatalf("Get returned %v, want the registered snapshot", got)
	}
	if got.Table().NumRows() != 4 {
		t.Fatalf("rows = %d, want 4", got.Table().NumRows())
	}
	if got.Parser() == nil {
		t.Fatal("snapshot has no parser")
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
	old, ok, err := st.Drop("a")
	if err != nil || !ok || old != snap {
		t.Fatal("Drop did not return the final snapshot")
	}
	if _, ok := st.Get("a"); ok {
		t.Fatal("Get succeeded after Drop")
	}
	if _, ok, _ := st.Drop("a"); ok {
		t.Fatal("second Drop succeeded")
	}
}

func TestStoreGenerationMonotonic(t *testing.T) {
	st := New(Options{})
	var last uint64
	for i := range 20 {
		snap, err := st.Register(mustTable(t, fmt.Sprintf("t%d", i%5), 3))
		if err != nil {
			t.Fatalf("Register: %v", err)
		}
		if snap.Gen() <= last {
			t.Fatalf("generation %d not monotonic after %d", snap.Gen(), last)
		}
		last = snap.Gen()
	}
	if g := series(t, st, "store.generation"); uint64(g) != last {
		t.Fatalf("store.generation = %d, want %d", g, last)
	}
}

func TestStoreAppendCopyOnWriteIsolation(t *testing.T) {
	st := New(Options{})
	st.Register(mustTable(t, "a", 3))
	before, _ := st.Get("a")

	snap, err := st.Append("a", [][]string{{"fiji", "2024", "9"}})
	if err != nil {
		t.Fatal(err)
	}
	// The pinned snapshot still reads the pre-append state.
	if before.Table().NumRows() != 3 {
		t.Fatalf("pinned snapshot mutated: rows = %d, want 3", before.Table().NumRows())
	}
	if snap.Table().NumRows() != 4 {
		t.Fatalf("appended snapshot rows = %d, want 4", snap.Table().NumRows())
	}
	if snap.Version() == before.Version() {
		t.Fatal("append did not change the content version")
	}
	if snap.Gen() <= before.Gen() {
		t.Fatal("append did not bump the generation")
	}
	// The version is a hash of content alone: the grown table carries
	// the version a one-shot registration of the same rows would.
	base := mustTable(t, "a", 3)
	allRows := append(append([][]string(nil), base.RawRows()...), []string{"fiji", "2024", "9"})
	whole, err := New(Options{}).Register(table.MustNew("a", base.Columns(), allRows))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version() != whole.Version() {
		t.Fatalf("appended version %s, want %s as registered whole", snap.Version(), whole.Version())
	}
	if got, _ := st.Get("a"); got != snap {
		t.Fatal("Get does not serve the appended snapshot")
	}
	if _, err := st.Append("nope", nil); err == nil {
		t.Fatal("Append on unknown table succeeded")
	}
	if _, err := st.Append("a", [][]string{{"short"}}); err == nil {
		t.Fatal("ragged append succeeded")
	}
}

// TestStoreEventsFireSynchronously checks what each of four mutations
// reports displacing: a fresh registration nothing, a replacement and
// an append the version they replaced, and a drop its own snapshot's.
func TestStoreEventsFireSynchronously(t *testing.T) {
	st := New(Options{})
	first, _ := st.Register(mustTable(t, "a", 2))
	if first.Displaced() != "" {
		t.Fatalf("fresh register displaced %q, want \"\"", first.Displaced())
	}
	replaced, _ := st.Register(mustTable(t, "a", 3))
	if replaced.Displaced() != first.Version() {
		t.Fatalf("replace displaced %q, want %q", replaced.Displaced(), first.Version())
	}
	appended, err := st.Append("a", [][]string{{"x", "2000", "1"}})
	if err != nil {
		t.Fatal(err)
	}
	if appended.Displaced() != replaced.Version() {
		t.Fatalf("append displaced %q, want %q", appended.Displaced(), replaced.Version())
	}
	dropped, ok, err := st.Drop("a")
	if err != nil || !ok {
		t.Fatalf("Drop = %v, %v", ok, err)
	}
	if dropped != appended {
		t.Fatal("Drop did not return the snapshot it displaced")
	}
	again, _ := st.Register(mustTable(t, "a", 2))
	if again.Displaced() != "" {
		t.Fatalf("register after drop displaced %q, want \"\"", again.Displaced())
	}
}

func TestStoreVersionDistinguishesShape(t *testing.T) {
	// Same name and same flat cell text in a different shape must not
	// collide: a collision would serve one table's cached grid for the
	// other.
	wide := table.MustNew("t", []string{"a", "b"}, [][]string{{"x", "y"}})
	tall := table.MustNew("t", []string{"a"}, [][]string{{"b"}, {"x"}, {"y"}})
	if contentVersion(wide) == contentVersion(tall) {
		t.Errorf("versions collide for different shapes: %s", contentVersion(wide))
	}

	// Cells may contain any byte, including NUL: shifting a NUL across
	// a cell boundary must still change the version.
	a := table.MustNew("t", []string{"c", "d"}, [][]string{{"a\x00", "b"}})
	b := table.MustNew("t", []string{"c", "d"}, [][]string{{"a", "\x00b"}})
	if contentVersion(a) == contentVersion(b) {
		t.Errorf("versions collide across shifted NUL boundary: %s", contentVersion(a))
	}
}

func TestStoreMemoryAccounting(t *testing.T) {
	st := New(Options{})
	tab := mustTable(t, "a", 32)
	st.Register(tab)
	base := series(t, st, "store.bytes")
	if base <= 0 {
		t.Fatal("no base bytes accounted after register")
	}
	if base != tab.BaseBytes() {
		t.Fatalf("store bytes %d != table base %d", base, tab.BaseBytes())
	}

	// Building a sorted index grows the footprint read off the table.
	col, _ := tab.ColumnIndex("Year")
	tab.NumericSortedRows(col)
	if got := series(t, st, "store.bytes"); got != base+tab.DerivedBytes() || tab.DerivedBytes() <= 0 {
		t.Fatalf("store bytes %d after index build, want base %d + derived %d", got, base, tab.DerivedBytes())
	}

	// Dropping the table releases everything.
	st.Drop("a")
	if got := series(t, st, "store.bytes"); got != 0 {
		t.Fatalf("store bytes %d after drop, want 0", got)
	}
	// A dropped table's later index builds must not be charged.
	tab.DropDerivedIndexes()
	tab.NumericSortedRows(col)
	if got := series(t, st, "store.bytes"); got != 0 {
		t.Fatalf("dropped table's index build charged %d bytes to the store", got)
	}
}

// TestStoreZoneMapBytes: the zone-map gauge is the bytes of the zone
// maps the resident tables hold, so a version that an append replaces
// or a drop releases stops counting. An appended version builds its
// own zone maps on first use.
func TestStoreZoneMapBytes(t *testing.T) {
	st := New(Options{})
	snap, err := st.Register(mustTable(t, "a", 8))
	if err != nil {
		t.Fatal(err)
	}
	for c := range snap.Table().NumCols() {
		snap.Table().ColumnZones(c)
	}
	if got, want := series(t, st, "store.zonemap.bytes"), snap.Table().ZoneBytes(); got != want || want <= 0 {
		t.Fatalf("zone-map bytes %d after the build, want the table's %d", got, want)
	}
	for i := range 5 {
		if snap, err = st.Append("a", [][]string{{"nation9", strconv.Itoa(2024 + i), "99"}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := series(t, st, "store.zonemap.bytes"); got != 0 {
		t.Fatalf("zone-map bytes %d after 5 appends, want 0 before the new version's build", got)
	}
	for c := range snap.Table().NumCols() {
		snap.Table().ColumnZones(c)
	}
	if got, want := series(t, st, "store.zonemap.bytes"), snap.Table().ZoneBytes(); got != want || want <= 0 {
		t.Fatalf("zone-map bytes %d after 5 appends, want one table's %d", got, want)
	}
	st.Drop("a")
	if got := series(t, st, "store.zonemap.bytes"); got != 0 {
		t.Fatalf("zone-map bytes %d with no tables left, want 0", got)
	}
}

// TestStoreEvictionOrdering pins the eviction policy: over budget, the
// least recently used table loses its derived indexes first, base data
// survives, and the indexes rebuild on demand.
func TestStoreEvictionOrdering(t *testing.T) {
	tabs := make([]*table.Table, 3)
	for i := range tabs {
		tabs[i] = mustTable(t, fmt.Sprintf("t%d", i), 64)
	}
	// Budget: all base data plus roughly one table's worth of indexes,
	// so index builds on two further tables must push one eviction.
	var baseTotal int64
	for _, tab := range tabs {
		baseTotal += tab.BaseBytes()
	}
	yearOf := func(tab *table.Table) int { c, _ := tab.ColumnIndex("Year"); return c }
	gamesOf := func(tab *table.Table) int { c, _ := tab.ColumnIndex("Games"); return c }

	st := New(Options{ByteBudget: baseTotal + 3*(64*8+24)})
	for _, tab := range tabs {
		st.Register(tab)
	}

	// Warm all three; then touch t1 and t2 again so t0 is coldest.
	for _, tab := range tabs {
		tab.NumericSortedRows(yearOf(tab))
		tab.NumericSortedRows(gamesOf(tab))
		st.Get(tab.Name())
	}
	st.Get("t1")
	st.Get("t2")
	// Trigger the budget check via a fresh build on the hottest table.
	tabs[2].DropDerivedIndexes()
	tabs[2].NumericSortedRows(yearOf(tabs[2]))
	st.Get("t2")

	if ev := series(t, st, "store.evictions"); ev == 0 {
		t.Fatalf("no evictions under budget %d with bytes %d", st.opts.ByteBudget, series(t, st, "store.bytes"))
	}
	if tabs[0].DerivedBytes() != 0 {
		t.Fatalf("coldest table kept %d derived bytes", tabs[0].DerivedBytes())
	}
	// Base data must be fully intact and the index rebuildable.
	if tabs[0].NumRows() != 64 {
		t.Fatal("eviction touched base data")
	}
	if rows := tabs[0].NumericSortedRows(yearOf(tabs[0])); len(rows) != 64 {
		t.Fatalf("rebuilt index has %d rows, want 64", len(rows))
	}
}

// TestStoreUnattainableBudgetDoesNotThrash pins the misconfiguration
// guard: when base data alone exceeds the budget, no index dropping
// can reach it, so the sweep must evict nothing instead of discarding
// every index the moment a query rebuilds it.
func TestStoreUnattainableBudgetDoesNotThrash(t *testing.T) {
	tab := mustTable(t, "a", 64)
	st := New(Options{ByteBudget: tab.BaseBytes() / 2})
	st.Register(tab)
	col, _ := tab.ColumnIndex("Year")
	for range 3 {
		if rows := tab.NumericSortedRows(col); len(rows) != 64 {
			t.Fatalf("index build returned %d rows", len(rows))
		}
		st.Get("a")
	}
	if tab.DerivedBytes() == 0 {
		t.Fatal("index evicted under an unattainable budget (thrash)")
	}
	if ev := series(t, st, "store.evictions"); ev != 0 {
		t.Fatalf("%d evictions under an unattainable budget", ev)
	}
}

// TestStoreConcurrentChurn hammers the catalog with interleaved
// registrations, appends, drops and snapshot reads; run under -race it
// proves readers never observe a torn state: a pinned snapshot's row
// count and version stay coherent regardless of mutations around it.
func TestStoreConcurrentChurn(t *testing.T) {
	st := New(Options{})
	names := []string{"a", "b", "c", "d", "e"}
	for _, n := range names {
		st.Register(mustTable(t, n, 8))
	}

	const iters = 200
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := names[w%len(names)]
			for i := range iters {
				switch i % 4 {
				case 0:
					st.Register(mustTable(t, name, 4+i%8))
				case 1:
					if _, err := st.Append(name, [][]string{{"x", "2000", strconv.Itoa(i)}}); err != nil {
						// Legal: another goroutine dropped it.
						continue
					}
				case 2:
					st.Drop(name)
					st.Register(mustTable(t, name, 8))
				default:
					st.Get(name)
				}
			}
		}(w)
	}
	// Readers: every acquired snapshot must be internally consistent.
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range iters * 2 {
				for _, n := range names {
					snap, ok := st.Get(n)
					if !ok {
						continue
					}
					tab := snap.Table()
					rows := tab.NumRows()
					// Re-derive the version: content seen through the
					// snapshot must hash to the version it advertises.
					if v := contentVersion(tab); v != snap.Version() {
						t.Errorf("torn snapshot: version %s but content hashes to %s", snap.Version(), v)
						return
					}
					if rows != tab.NumRows() {
						t.Errorf("row count changed under a pinned snapshot")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st.gen.Load() <= uint64(len(names)) {
		t.Fatal("no mutation installed during churn")
	}
	for _, n := range names {
		if _, ok := st.Get(n); !ok {
			st.Register(mustTable(t, n, 8))
		}
	}
	if st.Len() != len(names) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(names))
	}
}

// BenchmarkStoreSnapshot shows snapshot acquisition is O(1): the same
// zero-allocation pointer read whether the table has 8 rows or 20k.
func BenchmarkStoreSnapshot(b *testing.B) {
	for _, n := range []int{8, 1024, 20480} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			st := New(Options{})
			rows := make([][]string, n)
			for i := range rows {
				rows[i] = []string{"n" + strconv.Itoa(i%7), strconv.Itoa(1896 + 4*i), strconv.Itoa(i)}
			}
			tab, err := table.New("bench", []string{"Nation", "Year", "Games"}, rows)
			if err != nil {
				b.Fatal(err)
			}
			st.Register(tab)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap, ok := st.Get("bench")
				if !ok || snap.Table().NumRows() != n {
					b.Fatal("bad snapshot")
				}
			}
		})
	}
}

// residentSum is the footprint of the tables a store holds, read off
// the tables themselves: base plus derived bytes over every current
// snapshot.
func residentSum(st *Store) int64 {
	var n int64
	for _, snap := range st.Snapshots() {
		n += snap.Table().BaseBytes() + snap.Table().DerivedBytes()
	}
	return n
}

// checkResident fails the test unless store.bytes equals residentSum.
func checkResident(t *testing.T, st *Store, step string) {
	t.Helper()
	if got, want := series(t, st, "store.bytes"), residentSum(st); got != want {
		t.Fatalf("%s: store.bytes %d, resident sum %d", step, got, want)
	}
}

// buildDerived builds every numeric index and zone map of a table.
func buildDerived(tab *table.Table) {
	for c := range tab.NumCols() {
		tab.NumericSortedRows(c)
		tab.ColumnZones(c)
	}
}

// TestStoreBytesEqualsResidentSum runs a budgeted store through
// registrations, index builds, an append, a re-registration of the
// same table, a registration of changed content and a drop. After
// every Get and every mutation store.bytes is the footprint of the
// resident snapshots, and the budget has evicted exactly the coldest
// tables' derived bytes.
func TestStoreBytesEqualsResidentSum(t *testing.T) {
	names := []string{"t0", "t1", "t2"}
	var baseTotal, derived int64
	for _, n := range names {
		tab := mustTable(t, n, 64)
		baseTotal += tab.BaseBytes()
		buildDerived(tab)
		derived = tab.DerivedBytes()
	}
	// Room for two tables' derived bytes, not three.
	st := New(Options{ByteBudget: baseTotal + 2*derived + derived/4})
	for _, n := range names {
		if _, err := st.Register(mustTable(t, n, 64)); err != nil {
			t.Fatal(err)
		}
		checkResident(t, st, "register "+n)
	}
	get := func(name string) *table.Table {
		t.Helper()
		snap, ok := st.Get(name)
		if !ok {
			t.Fatalf("Get(%q) failed", name)
		}
		checkResident(t, st, "get "+name)
		return snap.Table()
	}
	holding := func() string {
		var out []string
		for _, n := range names {
			if snap, ok := st.peek(n); ok && snap.Table().DerivedBytes() > 0 {
				out = append(out, n)
			}
		}
		return fmt.Sprint(out)
	}
	pin := func(step string, evictions int64, hold string) {
		t.Helper()
		if got := series(t, st, "store.evictions"); got != evictions {
			t.Fatalf("%s: %d evictions, want %d", step, got, evictions)
		}
		if got := holding(); got != hold {
			t.Fatalf("%s: tables holding derived bytes %s, want %s", step, got, hold)
		}
	}
	for _, n := range names {
		buildDerived(get(n))
		checkResident(t, st, "build "+n)
		get(n)
	}
	pin("builds", 1, "[t1 t2]")

	if _, err := st.Append("t1", [][]string{{"nation9", "2024", "99"}}); err != nil {
		t.Fatal(err)
	}
	checkResident(t, st, "append t1")
	pin("append", 1, "[t2]")
	buildDerived(get("t1"))
	checkResident(t, st, "build appended t1")
	pin("build appended", 1, "[t1 t2]")

	same := get("t2")
	if _, err := st.Register(same); err != nil {
		t.Fatal(err)
	}
	checkResident(t, st, "re-register t2")
	pin("re-register", 1, "[t1 t2]")

	if _, err := st.Register(mustTable(t, "t2", 32)); err != nil {
		t.Fatal(err)
	}
	checkResident(t, st, "register changed t2")
	pin("register changed", 1, "[t1]")

	if _, _, err := st.Drop("t0"); err != nil {
		t.Fatal(err)
	}
	checkResident(t, st, "drop t0")
	buildDerived(get("t2"))
	get("t2")
	pin("rebuild t2", 1, "[t1 t2]")
}

// TestTableInTwoStores registers one table in two stores: each store
// reads its footprint off the table, so each one's store.bytes is its
// own resident sum whatever the other does, and dropping the table
// from one store leaves the other's budget acting on it.
func TestTableInTwoStores(t *testing.T) {
	tab := mustTable(t, "a", 64)
	first := New(Options{})
	// Room for one sorted index, not for every derived structure.
	second := New(Options{ByteBudget: tab.BaseBytes() + 512})
	check := func(step string) {
		t.Helper()
		checkResident(t, first, step+" (first store)")
		checkResident(t, second, step+" (second store)")
	}
	for _, st := range []*Store{first, second} {
		if _, err := st.Register(tab); err != nil {
			t.Fatal(err)
		}
	}
	check("register")
	year, _ := tab.ColumnIndex("Year")
	tab.NumericSortedRows(year)
	check("index build")
	buildDerived(tab)
	check("build")
	if _, _, err := first.Drop("a"); err != nil {
		t.Fatal(err)
	}
	check("drop from the first store")
	for i := range 2 {
		second.Get("a")
		check("get")
		if tab.DerivedBytes() != 0 {
			t.Fatalf("second store left %d derived bytes over its budget", tab.DerivedBytes())
		}
		if got := series(t, second, "store.evictions"); got != int64(i+1) {
			t.Fatalf("second store evicted %d times, want %d", got, i+1)
		}
		buildDerived(tab)
		check("rebuild")
	}
}

// TestStoreConcurrentEviction races index builds, index drops, Gets,
// appends and drops on a budgeted store while store.bytes is scraped:
// the gauge never reads negative, and once the workers are joined it
// is the resident sum again and the budget still evicts.
func TestStoreConcurrentEviction(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	var base, derived int64
	for _, n := range names {
		tab := mustTable(t, n, 32)
		base += tab.BaseBytes()
		buildDerived(tab)
		derived = tab.DerivedBytes()
	}
	// Room for two tables' derived bytes, not four.
	st := New(Options{ByteBudget: base + 2*derived})
	for _, n := range names {
		st.Register(mustTable(t, n, 32))
	}
	const iters = 200
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := names[w]
			for i := range iters {
				snap, ok := st.Get(names[(w+i)%len(names)])
				switch {
				case ok && i%2 == 0:
					buildDerived(snap.Table())
				case ok && i%5 == 1:
					snap.Table().DropDerivedIndexes()
				case i%7 == 3:
					st.Append(name, [][]string{{"x", "2000", strconv.Itoa(i)}})
				case i%11 == 5:
					st.Drop(name)
					st.Register(mustTable(t, name, 16+i%32))
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	scraped := make(chan int64)
	go func() {
		var low int64
		for {
			select {
			case <-stop:
				scraped <- low
				return
			default:
			}
			low = min(low, series(t, st, "store.bytes"))
		}
	}()
	wg.Wait()
	close(stop)
	if low := <-scraped; low < 0 {
		t.Fatalf("store.bytes read %d during the race", low)
	}
	if st.Len() != len(names) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(names))
	}
	checkResident(t, st, "after the join")

	// Back to the starting tables, every index built: the next Get
	// evicts down to the budget.
	before := series(t, st, "store.evictions")
	for _, n := range names {
		snap, err := st.Register(mustTable(t, n, 32))
		if err != nil {
			t.Fatal(err)
		}
		buildDerived(snap.Table())
	}
	st.Get(names[0])
	if got := series(t, st, "store.bytes"); got > st.opts.ByteBudget {
		t.Fatalf("store.bytes %d over the budget %d after a Get", got, st.opts.ByteBudget)
	}
	if series(t, st, "store.evictions") == before {
		t.Fatal("no eviction after the join")
	}
}
