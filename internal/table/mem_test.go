package table

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestFromCSVEdgeCases(t *testing.T) {
	t.Run("empty input", func(t *testing.T) {
		if _, err := FromCSV("t", strings.NewReader("")); err == nil {
			t.Fatal("empty CSV accepted")
		}
	})
	t.Run("header only", func(t *testing.T) {
		tab, err := FromCSV("t", strings.NewReader("Year,City\n"))
		if err != nil {
			t.Fatal(err)
		}
		if tab.NumRows() != 0 || tab.NumCols() != 2 {
			t.Fatalf("got %dx%d, want 0x2", tab.NumRows(), tab.NumCols())
		}
		// A header-only table must still answer structural queries.
		if got := len(tab.Records()); got != 0 {
			t.Fatalf("Records() = %d entries", got)
		}
		col, ok := tab.ColumnIndex("year")
		if !ok || col != 0 {
			t.Fatalf("ColumnIndex(year) = %d, %v", col, ok)
		}
	})
	t.Run("ragged records", func(t *testing.T) {
		if _, err := FromCSV("t", strings.NewReader("A,B\n1,2\n3\n")); err == nil {
			t.Fatal("ragged CSV accepted")
		}
	})
	t.Run("utf8 bom", func(t *testing.T) {
		tab, err := FromCSV("t", strings.NewReader("\ufeffYear,City\n1896,Athens\n"))
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.Column(0); got != "Year" {
			t.Fatalf("first header = %q, want BOM stripped %q", got, "Year")
		}
		if _, ok := tab.ColumnIndex("Year"); !ok {
			t.Fatal("BOM header not resolvable by name")
		}
	})
	t.Run("quoted multiline cell", func(t *testing.T) {
		tab, err := FromCSV("t", strings.NewReader("A,B\n\"x\ny\",2\n"))
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.Raw(0, 0); got != "x\ny" {
			t.Fatalf("cell = %q", got)
		}
	})
}

func TestAppendCopyOnWrite(t *testing.T) {
	base := MustNew("t", []string{"Nation", "Year"}, [][]string{
		{"Greece", "1896"},
		{"France", "1900"},
	})
	grown, err := base.Append([][]string{{"China", "2008"}})
	if err != nil {
		t.Fatal(err)
	}
	if base.NumRows() != 2 {
		t.Fatalf("base mutated: %d rows", base.NumRows())
	}
	if grown.NumRows() != 3 || grown.Raw(2, 0) != "China" {
		t.Fatalf("grown = %d rows, last %q", grown.NumRows(), grown.Raw(2, 0))
	}
	if base.Raw(1, 0) != "France" || grown.Raw(1, 0) != "France" {
		t.Fatalf("shared rows read %q in the base, %q in the grown table", base.Raw(1, 0), grown.Raw(1, 0))
	}
	// Derived structures are rebuilt for the full relation.
	col, _ := grown.ColumnIndex("Nation")
	if rows := grown.RowsFor(col, StringValue("China")); len(rows) != 1 || rows[0] != 2 {
		t.Fatalf("RowsFor(China) = %v", rows)
	}
	yearCol, _ := grown.ColumnIndex("Year")
	if rows := grown.NumericSortedRows(yearCol); len(rows) != 3 || rows[2] != 2 {
		t.Fatalf("NumericSortedRows = %v", rows)
	}
	if _, err := base.Append([][]string{{"short"}}); err == nil {
		t.Fatal("ragged append accepted")
	}
}

func TestInterningDeduplicatesStrings(t *testing.T) {
	rows := make([][]string, 100)
	for i := range rows {
		rows[i] = []string{"Greece", strconv.Itoa(i % 3)}
	}
	tab := MustNew("t", []string{"Nation", "Games"}, rows)
	// 200 cells but only a handful of distinct strings (plus keys).
	if dictEntries(tab) > 10 {
		t.Fatalf("%d dictionary entries, want few (interned)", dictEntries(tab))
	}
	if tab.BaseBytes() <= 0 {
		t.Fatal("BaseBytes not sealed")
	}
	// Identical content in a wider dictionary costs more.
	distinct := make([][]string, 100)
	for i := range distinct {
		distinct[i] = []string{"Nation" + strconv.Itoa(i), strconv.Itoa(i)}
	}
	tab2 := MustNew("t", []string{"Nation", "Games"}, distinct)
	if tab2.BaseBytes() <= tab.BaseBytes() {
		t.Fatalf("distinct-string table (%d B) not larger than repetitive one (%d B)", tab2.BaseBytes(), tab.BaseBytes())
	}
}

func TestDerivedIndexAccounting(t *testing.T) {
	rows := make([][]string, 50)
	for i := range rows {
		rows[i] = []string{strconv.Itoa(i), "x"}
	}
	tab := MustNew("t", []string{"N", "S"}, rows)
	if tab.DerivedBytes() != 0 {
		t.Fatal("derived bytes before any index build")
	}
	tab.NumericSortedRows(0)
	built := tab.DerivedBytes()
	if built <= 0 {
		t.Fatal("index build not accounted")
	}
	// Second use: cached, no new accounting.
	tab.NumericSortedRows(0)
	if tab.DerivedBytes() != built {
		t.Fatal("cached index use changed accounting")
	}
	freed := tab.DropDerivedIndexes()
	if freed != built || tab.DerivedBytes() != 0 {
		t.Fatalf("drop freed %d, want %d; residual %d", freed, built, tab.DerivedBytes())
	}
	// Rebuild works and re-accounts.
	if rows := tab.NumericSortedRows(0); len(rows) != 50 {
		t.Fatalf("rebuilt index %d rows", len(rows))
	}
	if tab.DerivedBytes() != built {
		t.Fatalf("rebuild accounted %d, want %d", tab.DerivedBytes(), built)
	}
}

// TestConcurrentIndexBuildAndDrop races builders against droppers;
// under -race this pins the atomic publication protocol.
func TestConcurrentIndexBuildAndDrop(t *testing.T) {
	rows := make([][]string, 64)
	for i := range rows {
		rows[i] = []string{strconv.Itoa(i), strconv.Itoa(i * 2)}
	}
	tab := MustNew("t", []string{"A", "B"}, rows)
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for range 200 {
				if w%2 == 0 {
					got := tab.NumericSortedRows(w % 2)
					if len(got) != 64 {
						t.Errorf("index has %d rows", len(got))
						return
					}
				} else {
					tab.DropDerivedIndexes()
				}
			}
		}(w)
	}
	wg.Wait()
	// Quiesced: accounting must be coherent with what is resident.
	resident := int64(0)
	for c := range tab.numIdx {
		if idx := tab.numIdx[c].Load(); idx != nil {
			resident += indexBytes(len(idx.rows))
		}
	}
	if got := tab.DerivedBytes(); got != resident {
		t.Fatalf("DerivedBytes = %d, resident = %d", got, resident)
	}
}

// TestConcurrentFirstLookups races the first KB lookups of a fresh
// 131072-record table: 8 goroutines make the first RowsFor,
// MostFrequentRows and DistinctColumnValues calls on every column, each
// in its own order, and again after DropDerivedIndexes. Under -race
// this pins the publication of whatever a lookup reads; every answer
// must equal a second, independently built table's. Tick spells a NaN
// in its last record, as the scan fixture does.
func TestConcurrentFirstLookups(t *testing.T) {
	rows := bigFixtureRows(131072)
	rows[len(rows)-1][1] = "NaN"
	type answers struct {
		distinct []Value
		frequent []int32
		lookups  [][]int32 // RowsFor of every 509th distinct value
	}
	const stride = 509
	ref := MustNew("big", bigFixtureCols, rows)
	want := make([]answers, ref.NumCols())
	for c := range want {
		a := &want[c]
		a.distinct = ref.DistinctColumnValues(c)
		a.frequent = slices.Clone(ref.MostFrequentRows(c))
		for i := 0; i < len(a.distinct); i += stride {
			a.lookups = append(a.lookups, slices.Clone(ref.RowsFor(c, a.distinct[i])))
		}
	}
	tab := MustNew("big", bigFixtureCols, rows)
	for round := range 2 {
		if round == 1 {
			tab.DropDerivedIndexes()
		}
		var wg sync.WaitGroup
		for w := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range tab.NumCols() {
					c := (i + w) % tab.NumCols()
					a := &want[c]
					for op := range 3 {
						switch (op + w) % 3 {
						case 0:
							if got := tab.DistinctColumnValues(c); !slices.EqualFunc(got, a.distinct, sameValue) {
								t.Errorf("round %d: DistinctColumnValues(%d) diverges", round, c)
							}
						case 1:
							if got := tab.MostFrequentRows(c); !slices.Equal(got, a.frequent) {
								t.Errorf("round %d: MostFrequentRows(%d) = %d rows, want %d", round, c, len(got), len(a.frequent))
							}
						case 2:
							for j, rows := range a.lookups {
								if got := tab.RowsFor(c, a.distinct[j*stride]); !slices.Equal(got, rows) {
									t.Errorf("round %d: RowsFor(%d, %v) = %d rows, want %d", round, c, a.distinct[j*stride], len(got), len(rows))
								}
							}
							if got := tab.RowsFor(c, StringValue("absent")); got != nil {
								t.Errorf("round %d: RowsFor(%d, absent) = %v", round, c, got)
							}
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}
