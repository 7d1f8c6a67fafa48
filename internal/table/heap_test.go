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
// clock: the big table costs at most 28 live heap bytes per cell.
// Codes, the numeric vectors of its four numeric columns, 32-bit
// postings and the dictionaries with their slot tables measure 24.9.
// 64-bit postings (4 more a cell), a string header per cell (16) or a
// Go map per column (25 a key) does not fit under the gate on top of
// them. Two type bytes per cell or a numeric vector for the two text
// columns (2.7 a cell) would fit; TestValueMatchesParse holds a text
// column's vector to nil.
//
// The same fixture read from CSV at 100 000 records — a count no
// vector's growth lands on exactly — is held to 26.8 estimated and
// 26.9 live bytes per cell: what a build that grows its vectors the
// way append does keeps. Room a vector was grown into and never
// filled shows in both.
func TestTableHeapPerCell(t *testing.T) {
	t.Run("New", func(t *testing.T) {
		tabs, heap := liveHeap(bigFixture)
		perCell := float64(heap) / float64(tabs[0].NumRows()*tabs[0].NumCols())
		t.Logf("%d live heap bytes, %.1f per cell", heap, perCell)
		if perCell > 28 {
			t.Errorf("big table keeps %.1f heap bytes per cell, want at most 28", perCell)
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
		if base > 26.8 || live > 26.9 {
			t.Errorf("FromCSV of 100000 records keeps %.2f estimated and %.2f live heap bytes per cell, want at most 26.8 and 26.9", base, live)
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
// fixture's 131072 records (5.2 MB of CSV): 62 456 672 bytes, the two
// batches of records it reads into and a string copy of each batch's
// text included. Growing every vector the way append does, one cell at
// a time, read 76 328 392.
const fromCSVAllocBound = 62_600_000

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
