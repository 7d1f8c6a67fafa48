package engine

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"nlexplain/internal/semparse"
	"nlexplain/internal/table"
	"nlexplain/internal/wikitables"
)

// parseCorpus registers the tables of the default generated dataset —
// the corpus semparse's golden hashes pin — and returns its questions.
func parseCorpus(t *testing.T, e *Engine) []*semparse.Example {
	t.Helper()
	ds := wikitables.Generate(wikitables.DefaultOptions())
	for _, tabs := range [][]*table.Table{ds.TrainTables, ds.TestTables} {
		for _, tab := range tabs {
			if _, err := e.RegisterTable(tab); err != nil {
				t.Fatal(err)
			}
		}
	}
	return append(ds.Train, ds.Test...)
}

// publishAll computes what the parse cache would publish for every
// question of the corpus.
func publishAll(t *testing.T, e *Engine, corpus []*semparse.Example) []parsedPool {
	t.Helper()
	entries := make([]parsedPool, len(corpus))
	for i, ex := range corpus {
		snap, ok := e.store.Get(ex.Table.Name())
		if !ok {
			t.Fatalf("table %q not registered", ex.Table.Name())
		}
		entry, err := e.computeParse(context.Background(), snap, ex.Table.Name(), ex.Question)
		if err != nil {
			t.Fatal(err)
		}
		entries[i] = entry
	}
	return entries
}

// liveHeap reports the heap bytes live after two collections.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestParseHeapPerQuestion is the parse cache's footprint gate, and it
// does not read the clock: what one cached question keeps alive. The
// parser's top 7 ranks — query, score and result preview — measure
// 0.9 KB on this corpus. While the entry held every candidate's query
// and score (104 a question) beside the top 7's previews it was 7.2 KB,
// with every candidate's denotation 29 KB, and with a name-keyed
// feature map per candidate 139 KB; the ranks below the default depth
// do not fit under the bound. A top_k of 1 000 on every question,
// which the cache does not keep, must leave no entry behind and at
// most 64 heap bytes a question. The log splits the entry into its
// parts and sets beside it what the parser's pool would add.
func TestParseHeapPerQuestion(t *testing.T) {
	if raceEnabled {
		t.Skip("heap measurement under the race detector")
	}
	const bound = 1_022 // measured 889, + 15 %; 7 247 with every candidate's query and score, 28 916 with every candidate's denotation
	e := New(Options{CacheSize: 64, Workers: 2})
	corpus := parseCorpus(t, e)
	n := int64(len(corpus))

	base := liveHeap()
	entries := publishAll(t, e, corpus)
	entry := (liveHeap() - base) / n
	if entry > bound {
		t.Errorf("a published parse keeps %d heap bytes, want at most %d", entry, bound)
	}

	for _, pool := range entries {
		for i := range pool {
			pool[i].preview = ""
		}
	}
	queries := (liveHeap() - base) / n
	runtime.KeepAlive(entries)
	entries = nil

	base = liveHeap()
	for _, ex := range corpus {
		if _, err := e.ParseQuestion(context.Background(), ex.Table.Name(), ex.Question, 1000); err != nil {
			t.Fatal(err)
		}
	}
	deep := (liveHeap() - base) / n
	if size := counter(t, e, "engine.cache.parse.size"); size != 0 || deep > 64 {
		t.Errorf("top_k 1000 on every question left %d parse-cache entries and %d heap bytes a question, want 0 and at most 64", size, deep)
	}

	base = liveHeap()
	pools := make([][]*semparse.Candidate, len(corpus))
	candidates := 0
	for i, ex := range corpus {
		snap, _ := e.store.Get(ex.Table.Name())
		pools[i] = snap.Parser().ParseAll(ex.Question, snap.Table())
		candidates += len(pools[i])
	}
	pool := (liveHeap() - base) / n
	runtime.KeepAlive(pools)
	t.Logf("%d questions, %d candidates: a published entry keeps %d heap bytes — previews %d, queries and scores %d; "+
		"top_k 1000 on each leaves %d; the pool as the parser returns it keeps %d, the %d more being the ranks below 7, "+
		"denotations, feature vectors and query texts",
		n, candidates, entry, entry-queries, queries, deep, pool, pool-entry)
}

// TestParseAllocsPerQuestion bounds the garbage of a parse-cache miss:
// heap allocations per question from analysis to the published pool.
func TestParseAllocsPerQuestion(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector")
	}
	const bound = 1_356 // measured 1 232, + 10 %; 1 465 while a join over literals lowered each into a key string and the plan memoized them; 1 553 while every executed candidate's Compiled went to the heap (and no preview was rendered), 1 958 while Compile walked each query three times (Check, Lower, then the rewriter's fixpoint), 2 204 while candidate generation checked each query and Compile checked it again, 2 883 while ColumnIndex folded every header it was asked for, 10 668 with feature maps and a walk of every candidate's whole tree
	e := New(Options{CacheSize: 64, Workers: 2})
	corpus := parseCorpus(t, e)
	publishAll(t, e, corpus) // warm the executor's pools and the tables' lazy indexes
	perQuestion := testing.AllocsPerRun(1, func() { publishAll(t, e, corpus) }) / float64(len(corpus))
	t.Logf("%d questions, %.0f allocations per question", len(corpus), perQuestion)
	if perQuestion > bound {
		t.Errorf("a parse makes %.0f allocations, want at most %d", perQuestion, bound)
	}
}

// TestExplainMissAllocs bounds the garbage of an explanation-cache
// miss, family by family of the benchmark's four, on a 120-row table
// Section 5.3 sampling applies to: heap allocations and bytes of one
// uncached ExplainCached, from the cache probe to the published
// explanation, on the one goroutine that asked. The counts repeat to
// the byte; the bounds are the measured counts + 10 %. A
// provenance level held a second way — a map, a copy for the wire —
// does not fit under them.
func TestExplainMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector")
	}
	bounds := map[string]struct{ allocs, bytes float64 }{
		"lookup":      {80, 4_359},  // measured 73 / 3 963; 75 / 4 555 while the cached grid held its cells; 86 / 4 725 with key strings in the plan and Result.String making a string per value; 89 / 5 320 with the witness cells listed cell by cell between executor and level; 89 / 12 144 with PC listed cell by cell; 93 / 12 232 with three walks per compile; 94 / 12 376 with a goroutine per miss; 197 / 84 280 with the levels as hash maps
		"comparative": {86, 5_291},  // measured 78 / 4 810; 80 / 5 616; 100 / 5 850; 104 / 8 782; 104 / 15 971; 107 / 16 043; 108 / 16 187; 231 / 103 288
		"superlative": {100, 6_138}, // measured 91 / 5 580; 93 / 6 256; 96 / 6 298; 100 / 8 002; 100 / 15 106; 103 / 15 222; 104 / 15 366; 214 / 91 000
		"aggregate":   {105, 5_961}, // measured 95 / 5 419; 97 / 6 062; 101 / 6 155; 105 / 10 608; 106 / 16 190; 112 / 16 352; 113 / 16 445; 230 / 78 784
	}
	// One cache entry: every query of a family evicts the one before
	// it, so each call of a pass over the family misses.
	e := New(Options{CacheSize: 1, Workers: 1})
	if _, err := e.RegisterTable(gamesTable()); err != nil {
		t.Fatal(err)
	}
	for _, fam := range gamesFamilies {
		pass := func() {
			for _, q := range fam.queries {
				if _, cached, err := e.ExplainCached(context.Background(), "games", q); err != nil || cached {
					t.Fatalf("%s: cached=%v err=%v, want an uncached explanation", q, cached, err)
				}
			}
		}
		pass() // warm the executor's pools and the table's lazy indexes
		// A collection between two reads empties the executor's pools and
		// so adds to a pass; nothing subtracts. The least of five passes
		// is the pipeline's own count.
		allocs, bytes := math.Inf(1), math.Inf(1)
		n := float64(len(fam.queries))
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			pass()
			runtime.ReadMemStats(&after)
			allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/n)
			bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/n)
		}
		t.Logf("%-11s %4.0f allocations, %6.0f bytes per miss", fam.name, allocs, bytes)
		if b := bounds[fam.name]; allocs > b.allocs || bytes > b.bytes {
			t.Errorf("%s: a miss makes %.0f allocations / %.0f bytes, want at most %.0f / %.0f",
				fam.name, allocs, bytes, b.allocs, b.bytes)
		}
	}
}

// TestExplainMissBigTable bounds the garbage of an explain miss on the
// 131072-row fixture, where the witness rows of one operator number
// in the hundred thousands, next to an answer miss of the same query:
// allocations and bytes per miss, each the least of five passes. Two
// spellings of a query, one with a leading space, alternate on an
// engine of one cache entry, so every call misses and does the same
// work. The bounds are the measured counts + 10 %. The test logs the
// bytes the explanation's three provenance levels keep, and holds the
// explain miss to at most twice those plus the answer miss's bytes: the
// witness cells take no form on their way to the levels that costs
// more than the levels themselves.
//
// A scan of the fixture forks two morsel workers, whatever the machine,
// and the test runs on one P. On several, the runtime's per-P caches
// made the count depend on what the process ran before: a fork from a
// P whose free list held no exited goroutine allocated one (448 bytes),
// and a wait on a P with no cached sudog allocated one (96 bytes), in
// every pass.
func TestExplainMissBigTable(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector")
	}
	if testing.Short() {
		t.Skip("131072-row fixture")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	type bound struct{ allocs, bytes float64 }
	cases := []struct {
		query           string
		explain, answer bound
	}{
		// measured 76 / 1 052 944 and 27 / 1 896; 77 / 1 052 960 and
		// 27 / 1 912 while plan.Compare held a key memo; 88 /
		// 16 760 444 and 27 / 1 896 with the witness cells listed cell by
		// cell on their way from the executor to the levels
		{"count(Tick>=1000)", bound{84, 1_158_239}, bound{30, 2_086}},
		// measured 118 / 11 624 and 45 / 2 920; 120 / 11 888 and 45 /
		// 2 952 with the memo; 126 / 4 408 568 and 46 / 3 384
		{"count((Tick>=10000 u Tick<11311))", bound{130, 12_787}, bound{50, 3_212}},
		// measured 85 / 6 681 312 and 39 / 5 106 112; 85 / 9 802 504
		// and 40 / 8 227 400 while a date value carried a time.Time (a
		// Value was 56 bytes, now 32); 130 191 / 14 875 052 and 130 144
		// / 13 299 640 while Result.String made a string of every value;
		// 130 196 / 30 579 484
		{"R[Seq].Tick>=1000", bound{94, 7_349_444}, bound{43, 5_616_724}},
	}
	e := New(Options{CacheSize: 1, Workers: 1, ExecWorkers: 2})
	tab := bigFixture()
	if _, err := e.RegisterTable(tab); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, b := range cases {
		q := b.query
		spellings := [2]string{q, " " + q}
		var doc *Explanation
		explain := func() {
			for _, s := range spellings {
				ex, cached, err := e.ExplainCached(ctx, "big", s)
				if err != nil || cached {
					t.Fatalf("%s: cached=%v err=%v, want an uncached explanation", s, cached, err)
				}
				doc = ex
			}
		}
		answer := func() {
			for _, s := range spellings {
				if _, cached, err := e.ExplainAnswer(ctx, "big", s); err != nil || cached {
					t.Fatalf("%s: cached=%v err=%v, want an uncached answer", s, cached, err)
				}
			}
		}
		// miss returns the least allocations and bytes per miss of five
		// passes after a warm-up, which builds the table's lazy indexes
		// and fills the executor's pools.
		miss := func(pass func()) (allocs, bytes float64) {
			pass()
			allocs, bytes = math.Inf(1), math.Inf(1)
			for range 5 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				pass()
				runtime.ReadMemStats(&after)
				allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/2)
				bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/2)
			}
			return allocs, bytes
		}
		ea, eb := miss(explain)
		aa, ab := miss(answer)
		p := doc.Provenance
		kept := levelBytes(p.Output, tab.NumRows()) + levelBytes(p.Execution, tab.NumRows()) + levelBytes(p.Columns, tab.NumRows())
		t.Logf("%-33s explain miss %5.0f allocations / %9.0f bytes, answer miss %5.0f / %9.0f; the levels keep %d bytes",
			q, ea, eb, aa, ab, kept)
		if ea > b.explain.allocs || eb > b.explain.bytes {
			t.Errorf("%s: an explain miss makes %.0f allocations / %.0f bytes, want at most %.0f / %.0f",
				q, ea, eb, b.explain.allocs, b.explain.bytes)
		}
		if aa > b.answer.allocs || ab > b.answer.bytes {
			t.Errorf("%s: an answer miss makes %.0f allocations / %.0f bytes, want at most %.0f / %.0f",
				q, aa, ab, b.answer.allocs, b.answer.bytes)
		}
		if eb > float64(2*kept)+ab {
			t.Errorf("%s: an explain miss allocates %.0f bytes, more than twice the %d its levels keep plus an answer miss's %.0f",
				q, eb, kept, ab)
		}
	}
}

// levelBytes is what a level held by column keeps of a table of rows
// records: two words a column, and four bytes a row of a column it
// does not hold whole.
func levelBytes(l table.Level, rows int) int {
	per := map[int]int{}
	for c := range l.All() {
		per[c.Col]++
	}
	n := 0
	for _, k := range per {
		n += 8
		if k != rows {
			n += 4 * k
		}
	}
	return n
}

// bigFixture is the 131072 x 6 table the scan traffic runs on: two
// sequence columns, Nation0..Nation39, City0..City23 and two numeric
// columns of middling cardinality.
func bigFixture() *table.Table {
	rng := rand.New(rand.NewSource(7))
	rows := make([][]string, 131072)
	for i := range rows {
		rows[i] = []string{
			strconv.Itoa(i), strconv.Itoa(i),
			"Nation" + strconv.Itoa(rng.Intn(40)), "City" + strconv.Itoa(rng.Intn(24)),
			strconv.Itoa(rng.Intn(1_000_000)), strconv.Itoa(rng.Intn(10_000)),
		}
	}
	return table.MustNew("big", []string{"Seq", "Tick", "Nation", "City", "Games", "Score"}, rows)
}

// cachedBytes runs every query of qs on tab through call, which must
// miss, and returns the live heap the cache call fills keeps per entry.
// A first engine runs the queries so the table's lazy indexes and the
// executor's shared buffers exist before the reading; a second engine,
// sharing the table, is the one measured. Both live to the reading. The
// least of three readings is the entries' own: the runtime may start a
// thread during one, and its M and stack keep about 5 KB.
func cachedBytes(t *testing.T, tab *table.Table, qs []string, call func(e *Engine, table, query string) (cached bool, err error)) int64 {
	t.Helper()
	newEngine := func() *Engine {
		e := New(Options{CacheSize: 2 * len(qs), Workers: 1})
		if _, err := e.RegisterTable(tab); err != nil {
			t.Fatal(err)
		}
		return e
	}
	runAll := func(e *Engine) {
		for _, q := range qs {
			if cached, err := call(e, tab.Name(), q); err != nil || cached {
				t.Fatalf("%s: cached=%v err=%v, want an uncached result", q, cached, err)
			}
		}
	}
	per := int64(math.MaxInt64)
	for range 3 {
		warm, e := newEngine(), newEngine()
		runAll(warm)
		base := liveHeap()
		runAll(e)
		per = min(per, (liveHeap()-base)/int64(len(qs)))
		runtime.KeepAlive(warm)
		runtime.KeepAlive(e)
	}
	return per
}

// explainCall and answerCall fill the result cache and the answer cache.
func explainCall(e *Engine, tab, q string) (bool, error) {
	_, cached, err := e.ExplainCached(context.Background(), tab, q)
	return cached, err
}

func answerCall(e *Engine, tab, q string) (bool, error) {
	_, cached, err := e.ExplainAnswer(context.Background(), tab, q)
	return cached, err
}

// TestCachedExplanationBytes is the result cache's footprint gate, and
// it does not read the clock: the live heap one cached explanation
// keeps, the document with its provenance levels and the cache entry
// around it. The document's grid is a view of the table: it keeps no
// cells. The web tables are the benchmark's four query families on
// a 120-row table, which Section 5.3 samples, and on its first 30 rows,
// which it does not; the big table is the 131072-row fixture, counted
// by nation and read through 1 % Tick ranges, where PC (Definition 4.1)
// is every row of a column and a range's PE is too. With the levels
// held by column, a whole column costs two words and a big-table entry
// costs the rows of its PO and PE, 4 bytes each; listed cell by cell,
// at 16 bytes a cell, the entries measured 6 630 and 3 446 794 bytes.
// The wide family, R[Seq].Tick>=k over 131 040 of the fixture's rows,
// is measured on the result cache and on the answer cache, which holds
// its result string again.
func TestCachedExplanationBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap measurement under the race detector")
	}
	var web []string
	for _, fam := range gamesFamilies {
		web = append(web, fam.queries...)
	}
	games := gamesTable()
	per := cachedBytes(t, games, web, explainCall)
	t.Logf("web tables: %d explanations, %d heap bytes each", len(web), per)
	if bound := int64(1_433); per > bound { // measured 1 302, + 10 %; 1 759 while the grid held its cells
		t.Errorf("a cached web-table explanation keeps %d heap bytes, want at most %d", per, bound)
	}
	small := table.MustNew("games", games.Columns(), games.RawRows()[:30])
	per = cachedBytes(t, small, web, explainCall)
	t.Logf("30-row table: %d explanations, %d heap bytes each", len(web), per)
	if bound := int64(1_207); per > bound { // measured 1 097, + 10 %; 8 121 while the grid held its cells
		t.Errorf("a cached explanation of a 30-row table keeps %d heap bytes, want at most %d", per, bound)
	}

	if testing.Short() {
		t.Skip("131072-row fixture")
	}
	var big []string
	for i := range 4 {
		big = append(big, "count(Nation.Nation"+strconv.Itoa(3+i)+")")
		lo := 10_000 + 25_000*i
		big = append(big, "(Tick>="+strconv.Itoa(lo)+" u Tick<"+strconv.Itoa(lo+1311)+")")
	}
	fixture := bigFixture()
	per = cachedBytes(t, fixture, big, explainCall)
	t.Logf("131072-row table: %d explanations, %d heap bytes each", len(big), per)
	if bound := int64(24_000); per > bound { // measured 21 738, + 10 %
		t.Errorf("a cached big-table explanation keeps %d heap bytes, want at most %d", per, bound)
	}

	var wide []string
	for k := range 4 {
		wide = append(wide, "R[Seq].Tick>="+strconv.Itoa(32+k))
	}
	per = cachedBytes(t, fixture, wide, explainCall)
	t.Logf("wide family: %d explanations, %d heap bytes each", len(wide), per)
	if bound := int64(2_768_600); per > bound { // measured 2 516 832, + 10 %
		t.Errorf("a cached explanation of the wide family keeps %d heap bytes, want at most %d", per, bound)
	}
	per = cachedBytes(t, fixture, wide, answerCall)
	t.Logf("wide family: %d answers, %d heap bytes each", len(wide), per)
	if bound := int64(1_036_700); per > bound { // measured 942 384, + 10 %
		t.Errorf("a cached answer of the wide family keeps %d heap bytes, want at most %d", per, bound)
	}
}
