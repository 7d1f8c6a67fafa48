package table

import (
	"bytes"
	"encoding/csv"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
)

// bigFixtureRows generates the shape of table the service's scan
// traffic runs on: two sequence columns, two low-cardinality text
// columns and two numeric columns of middling cardinality.
func bigFixtureRows(n int) [][]string {
	rng := rand.New(rand.NewSource(7))
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{
			strconv.Itoa(i), strconv.Itoa(i),
			"Nation" + strconv.Itoa(rng.Intn(40)), "City" + strconv.Itoa(rng.Intn(24)),
			strconv.Itoa(rng.Intn(1_000_000)), strconv.Itoa(rng.Intn(10_000)),
		}
	}
	return rows
}

var bigFixtureCols = []string{"Seq", "Tick", "Nation", "City", "Games", "Score"}

// webFixtureRows is a 60-row web table: a year, a repeating nation, a
// distinct city with a capital letter (its key is a second string), a
// date and a count.
func webFixtureRows() [][]string {
	rows := make([][]string, 60)
	for i := range rows {
		rows[i] = []string{
			strconv.Itoa(1896 + 4*i), "Nation" + strconv.Itoa(i%9), "City " + strconv.Itoa(i),
			"June " + strconv.Itoa(1+i%28) + ", " + strconv.Itoa(1950+i), strconv.Itoa(i * 37 % 101),
		}
	}
	return rows
}

var webFixtureCols = []string{"Year", "Nation", "City", "Opened", "Medals"}

// liveHeap reports the heap bytes still live after build has returned
// and a collection has run: what the tables keep, cell text included,
// and none of what building them threw away.
func liveHeap(build func() []*Table) ([]*Table, int64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tabs := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return tabs, int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

func bigFixture() []*Table {
	return []*Table{MustNew("big", bigFixtureCols, bigFixtureRows(131072))}
}

// TestTableHeapPerCell is the footprint gate that does not read the
// clock: the big table costs at most 20 live heap bytes per cell.
// Codes, the numeric vectors of its four numeric columns and the
// dictionaries with their slot tables measure 18.7; the KB postings
// are derived on a column's first lookup, and the table keeps none
// until then. Postings built with the table (4 more a cell), a string
// header per cell (16) or a Go map per column (25 a key) does not fit
// under the gate on top of them, and nor does a second key dictionary
// for the column a NaN spells in (2.9 a cell), which the NaN subtest,
// the scan fixture's shape, would show. A numeric vector for a text
// column (1.3 a cell) is held off by TestValueMatchesParse, which
// holds it to nil.
//
// The same fixture read from CSV at 100 000 records — a count no
// vector's growth lands on exactly — is held to 20.4 estimated and
// 20.5 live bytes per cell (19.98 and 20.07 measured): the build trims
// every vector it grew, so room grown into and never filled would show
// in both.
func TestTableHeapPerCell(t *testing.T) {
	t.Run("New", func(t *testing.T) {
		tabs, heap := liveHeap(bigFixture)
		perCell := float64(heap) / float64(tabs[0].NumRows()*tabs[0].NumCols())
		t.Logf("%d live heap bytes, %.1f per cell", heap, perCell)
		if perCell > 20 {
			t.Errorf("big table keeps %.1f heap bytes per cell, want at most 20", perCell)
		}
		runtime.KeepAlive(tabs)
	})
	t.Run("NaN", func(t *testing.T) {
		// The scan fixture's shape: Tick's last record spells NaN, the
		// one cell of the column that is not its own key.
		tabs, heap := liveHeap(func() []*Table {
			rows := bigFixtureRows(131072)
			rows[len(rows)-1][1] = "NaN"
			return []*Table{MustNew("big", bigFixtureCols, rows)}
		})
		perCell := float64(heap) / float64(tabs[0].NumRows()*tabs[0].NumCols())
		t.Logf("%d live heap bytes, %.1f per cell", heap, perCell)
		if perCell > 20 {
			t.Errorf("big table with a NaN keeps %.1f heap bytes per cell, want at most 20", perCell)
		}
		runtime.KeepAlive(tabs)
	})
	t.Run("FromCSV", func(t *testing.T) {
		doc := bigFixtureCSV(100_000)
		tabs, heap := liveHeap(func() []*Table {
			tab, err := FromCSV("big", bytes.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}
			return []*Table{tab}
		})
		cells := float64(tabs[0].NumRows() * tabs[0].NumCols())
		base, live := float64(tabs[0].BaseBytes())/cells, float64(heap)/cells
		t.Logf("100000 records: BaseBytes %.2f per cell, live heap %.2f", base, live)
		if base > 20.4 || live > 20.5 {
			t.Errorf("FromCSV of 100000 records keeps %.2f estimated and %.2f live heap bytes per cell, want at most 20.4 and 20.5", base, live)
		}
		runtime.KeepAlive(tabs)
		runtime.KeepAlive(doc) // live on both sides of the measurement
	})
}

// bigFixtureCSV is the big fixture's first n records as a CSV
// document.
func bigFixtureCSV(n int) []byte { return csvDocument(bigFixtureCols, bigFixtureRows(n)) }

// csvDocument writes a header and its records as a CSV document.
func csvDocument(columns []string, rows [][]string) []byte {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	w.Write(columns)
	w.WriteAll(rows)
	return buf.Bytes()
}

// fromCSVAllocBound is the most FromCSV may allocate reading the big
// fixture's 131072 records (5.2 MB of CSV): 44 348 632 bytes measured,
// and a tenth more. That includes the reader's records, the two
// batches of 8192 records it reads into, and every vector the build
// grows by doubling and trims when it seals. A string copy of each
// batch's text, postings for every column and append's quarter-length
// growth of the dictionary offsets read 62 456 672; growing every
// vector the way append does, one cell at a time, read 76 328 392.
const fromCSVAllocBound = 48_780_000

// TestFromCSVAllocBytes pins the bytes FromCSV allocates reading the
// big fixture's CSV: the reader's records and every vector the build
// grows, outgrows and seals.
func TestFromCSVAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	doc := bigFixtureCSV(131072)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tab, err := FromCSV("big", bytes.NewReader(doc))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("FromCSV of %d bytes, %d cells allocated %d bytes", len(doc), tab.NumRows()*tab.NumCols(), got)
	if got > fromCSVAllocBound {
		t.Errorf("FromCSV allocated %d bytes, want at most %d", got, fromCSVAllocBound)
	}
}

// TestBaseBytesTracksHeap holds the estimate the store budgets with to
// the heap: within a fifth of what the tables measurably keep, for the
// big table and for web tables (many, so that the measurement is not a
// few kilobytes).
func TestBaseBytesTracksHeap(t *testing.T) {
	webFixture := func() []*Table {
		tabs := make([]*Table, 64)
		for i := range tabs {
			tabs[i] = MustNew("web", webFixtureCols, webFixtureRows())
		}
		return tabs
	}
	for name, build := range map[string]func() []*Table{"big": bigFixture, "web": webFixture} {
		tabs, heap := liveHeap(build)
		var est int64
		for _, tab := range tabs {
			est += tab.BaseBytes()
		}
		t.Logf("%s: BaseBytes %d, live heap %d (%.2f)", name, est, heap, float64(est)/float64(heap))
		if est < heap*8/10 || est > heap*12/10 {
			t.Errorf("%s: BaseBytes %d is not within 20%% of the %d live heap bytes", name, est, heap)
		}
		runtime.KeepAlive(tabs)
	}
}

// TestAppendParsesOnlyNewCells bounds Append's work on the rows it
// inherits: they are neither parsed nor hashed again. Parsing a cell
// with a capital letter or a date allocates its key, so an Append that
// parsed the parent would allocate in proportion to it; one that copies
// the vectors and dictionaries allocates the same few slices whatever
// the parent's size. And the builder counts its dictionary and key
// lookups, entries rehashed by a growing index included: an Append
// looks up its new cells — and the distinct spellings of a column
// whose index they outgrow — however many rows came before them.
func TestAppendParsesOnlyNewCells(t *testing.T) {
	extra := [][]string{{"Nation3", "June 8, 2013", "12"}, {"Atlantis", "n/a", "1e3"}}
	measure := func(parentRows int) (allocs float64, probes int) {
		rows := make([][]string, parentRows)
		for i := range rows {
			rows[i] = []string{"Nation" + strconv.Itoa(i%8), "June " + strconv.Itoa(1+i%28) + ", 2013", strconv.Itoa(i % 16)}
		}
		parent := MustNew("t", []string{"Nation", "Opened", "Games"}, rows)
		allocs = testing.AllocsPerRun(5, func() {
			if _, err := parent.Append(extra); err != nil {
				t.Fatal(err)
			}
		})
		b, err := parent.appendBuilder(extra)
		if err != nil {
			t.Fatal(err)
		}
		return allocs, b.probes()
	}
	small, smallProbes := measure(1_000)
	large, largeProbes := measure(64_000)
	t.Logf("Append onto 1000 rows: %v allocations, %d lookups; onto 64000: %v, %d", small, smallProbes, large, largeProbes)
	if large > small+8 {
		t.Errorf("Append onto 64000 rows made %v allocations against %v onto 1000: it scales with the parent", large, small)
	}
	if largeProbes > smallProbes {
		t.Errorf("Append onto 64000 rows made %d dictionary lookups against %d onto 1000: it hashes the parent", largeProbes, smallProbes)
	}
}

// TestNumericIndexAllocBytes pins what building the sorted numeric
// index of each numeric column of the big table allocates: the index
// itself, one more row vector of scratch and 16 KiB, at most.
func TestNumericIndexAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	tab := bigFixture()[0]
	n := uint64(tab.NumRows())
	bound := 2*4*n + 16<<10
	for c := range tab.NumCols() {
		if tab.ColumnNums(c) == nil {
			continue
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rows := tab.NumericSortedRows(c)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d rows indexed, %d bytes allocated", tab.Columns()[c], len(rows), got)
		if got > bound {
			t.Errorf("%s: the index build allocated %d bytes, want at most %d", tab.Columns()[c], got, bound)
		}
	}
}
