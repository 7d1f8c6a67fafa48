package table

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFillColumns holds the fan-out to its contract: every column is
// filled exactly once; a batch under BatchRows records, or any batch
// under GOMAXPROCS 1, fills its columns one after the other in order on
// the caller; a batch of BatchRows or more under GOMAXPROCS 4 fills
// columns at once — one batch, one past it, two and one past, and a
// morsel of records.
func TestFillColumns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	inline := func(label string, records int) {
		var order []int
		FillColumns(6, records, func(c int) { order = append(order, c) })
		if !slices.Equal(order, []int{0, 1, 2, 3, 4, 5}) {
			t.Errorf("%s: columns filled in order %v", label, order)
		}
	}
	inline("one record short of a batch", BatchRows-1)
	inline("no records", 0)
	runtime.GOMAXPROCS(1)
	inline("GOMAXPROCS 1", 4*BatchRows)
	runtime.GOMAXPROCS(4)

	for _, records := range []int{BatchRows, BatchRows + 1, 2*BatchRows + 1, ZoneRows} {
		// Columns 0 and 1 each wait for the other to start: only two
		// goroutines filling at once get past.
		var met sync.WaitGroup
		met.Add(2)
		var filled [6]atomic.Int32
		var stuck atomic.Bool
		FillColumns(6, records, func(c int) {
			filled[c].Add(1)
			if c < 2 {
				met.Done()
				done := make(chan struct{})
				go func() { met.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					stuck.Store(true)
				}
			}
		})
		if stuck.Load() {
			t.Errorf("%d records under GOMAXPROCS 4 never filled two columns at once", records)
		}
		for c := range filled {
			if n := filled[c].Load(); n != 1 {
				t.Errorf("%d records: column %d filled %d times", records, c, n)
			}
		}
	}
}

// sameColumnData reports the first part of two columns that differs,
// or "" when they are the same: every vector, dictionary, index slot
// and flag, numbers compared bit for bit.
func sameColumnData(a, b *columnData) string {
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch {
	case (a.nums == nil) != (b.nums == nil) || !slices.EqualFunc(a.nums, b.nums, sameBits):
		return "nums"
	case a.dict.text != b.dict.text || !slices.Equal(a.dict.ends, b.dict.ends):
		return "dict"
	case !slices.Equal(a.codes, b.codes):
		return "codes"
	case !slices.Equal(a.dictIx.slots, b.dictIx.slots):
		return "dictIx"
	case !slices.Equal(a.kinds, b.kinds):
		return "kinds"
	case a.exc.text != b.exc.text || !slices.Equal(a.exc.ends, b.exc.ends) || !slices.Equal(a.excGroup, b.excGroup):
		return "exceptions"
	case !slices.Equal(a.groups, b.groups) || !slices.Equal(a.entryGroup, b.entryGroup) || a.nkeys != b.nkeys:
		return "groups"
	case !slices.Equal(a.excIx.slots, b.excIx.slots):
		return "excIx"
	case a.allNum != b.allNum || a.hasNaN != b.hasNaN:
		return "flags"
	}
	return ""
}

// TestParallelBuildMatchesSerial builds tables around a batch of
// records — one short of it, one, one past it, two and one past, and
// two morsels and one past — through New, FromCSV and Append with
// their columns filled side by side (GOMAXPROCS 4, so they are even on
// one CPU) and one after the other (GOMAXPROCS 1): every column, and
// the byte estimate, come out the same. A key group splits in the last
// record ("Athens" after "athens"), a spelling is first seen there,
// and a cell in the second batch spells NaN.
func TestParallelBuildMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{BatchRows - 1, BatchRows, BatchRows + 1, 2*BatchRows + 1, 2*ZoneRows + 1} {
		rows := bigFixtureRows(n)
		for i := range rows {
			rows[i][3] = []string{"athens", "paris", "rome"}[i%3]
		}
		rows[min(BatchRows, n-1)][5] = "NaN"
		rows[n-1][3] = "Athens"
		rows[n-1][2] = "first seen last"
		doc := csvDocument(bigFixtureCols, rows)
		builds := map[string]func() (*Table, error){
			"New":     func() (*Table, error) { return New("big", bigFixtureCols, rows) },
			"FromCSV": func() (*Table, error) { return FromCSV("big", bytes.NewReader(doc)) },
			"Append": func() (*Table, error) {
				return MustNew("big", bigFixtureCols, rows[:n/3]).Append(rows[n/3:])
			},
		}
		for name, build := range builds {
			runtime.GOMAXPROCS(1)
			serial, err := build()
			if err != nil {
				t.Fatal(err)
			}
			runtime.GOMAXPROCS(4)
			parallel, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if parallel.NumRows() != n || parallel.BaseBytes() != serial.BaseBytes() {
				t.Errorf("%d records, %s: %d records and %d base bytes filled side by side, %d and %d one after the other", n, name, parallel.NumRows(), parallel.BaseBytes(), serial.NumRows(), serial.BaseBytes())
			}
			for c := range serial.cols {
				if part := sameColumnData(&parallel.cols[c], &serial.cols[c]); part != "" {
					t.Errorf("%d records, %s: column %d: %s differ filled side by side", n, name, c, part)
				}
			}
		}
	}
}
