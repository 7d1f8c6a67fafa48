package segment

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"nlexplain/internal/table"
)

// zonesV3 is the relation testdata/zones_v3.seg holds: a segment of
// schema 3 whose footer carries zone maps for all three columns, as
// checkpoints wrote them before the footer was left empty. Nation
// spells one key three ways; Year has an empty cell; Score a NaN and
// an empty cell.
var zonesV3 = struct {
	meta Meta
	rows [][]string
}{
	// Version is the store's content hash of the relation.
	meta: Meta{Name: "zones", Gen: 7, Version: "1894a01bb6686fd4", Columns: []string{"Nation", "Year", "Score"}, Rows: 5},
	rows: [][]string{
		{"Greece", "1896", "12.5"},
		{"greece", "1900", "NaN"},
		{"France", "", "7"},
		{"GREECE", "2004", "-3"},
		{"Japan", "1964", ""},
	},
}

// TestReadSegmentWithZoneFooter: a segment whose body ends in a full
// zone footer still reads back as its relation — the dictionary,
// codes, key codes and numbers of every column, and the meta the
// writer gave it.
func TestReadSegmentWithZoneFooter(t *testing.T) {
	path := filepath.Join("testdata", "zones_v3.seg")
	if n := footerColumns(t, path); n != len(zonesV3.meta.Columns) {
		t.Fatalf("fixture's footer covers %d columns, want %d", n, len(zonesV3.meta.Columns))
	}
	m, got := readTableFile(t, path)
	want := zonesV3.meta
	if m.Name != want.Name || m.Gen != want.Gen || m.Version != want.Version || m.Rows != want.Rows || !slices.Equal(m.Columns, want.Columns) {
		t.Fatalf("meta %+v, want %+v", m, want)
	}
	wantTab, err := table.New(want.Name, want.Columns, zonesV3.rows)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != wantTab.NumRows() || got.NumCols() != wantTab.NumCols() {
		t.Fatalf("%dx%d, want %dx%d", got.NumRows(), got.NumCols(), wantTab.NumRows(), wantTab.NumCols())
	}
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for c := range want.Columns {
		gd, gc := got.ColumnDictionary(c)
		wd, wc := wantTab.ColumnDictionary(c)
		if gd.Len() != wd.Len() || !slices.Equal(gc, wc) {
			t.Fatalf("column %d: %d entries, codes %v; want %d, %v", c, gd.Len(), gc, wd.Len(), wc)
		}
		for e := 0; e < wd.Len(); e++ {
			if gd.Entry(e) != wd.Entry(e) {
				t.Fatalf("column %d entry %d = %q, want %q", c, e, gd.Entry(e), wd.Entry(e))
			}
		}
		if g, w := got.ColumnKeyCodes(c), wantTab.ColumnKeyCodes(c); !slices.Equal(g, w) || got.NumKeys(c) != wantTab.NumKeys(c) {
			t.Fatalf("column %d: key codes %v of %d, want %v of %d", c, g, got.NumKeys(c), w, wantTab.NumKeys(c))
		}
		if g, w := got.ColumnNums(c), wantTab.ColumnNums(c); (g == nil) != (w == nil) || !slices.EqualFunc(g, w, sameBits) {
			t.Fatalf("column %d: nums %v, want %v", c, g, w)
		}
	}
}

// footerColumns walks the body of the segment at path past its cells
// and returns the number of columns its zone footer covers.
func footerColumns(t *testing.T, path string) int {
	t.Helper()
	data := readFile(t, path)
	d := decoder{buf: data[len(magic)+4:], what: path}
	d.uvarint() // schema
	d.string()  // name
	d.uvarint() // gen
	d.string()  // version
	ncols := int(d.uvarint())
	for range ncols {
		d.string()
	}
	nrows := int(d.uvarint())
	for range ncols * nrows {
		if v := d.uvarint(); v&1 == 1 {
			d.take(v >> 1)
		}
	}
	n := int(d.uvarint())
	if d.err != nil {
		t.Fatal(d.fail())
	}
	return n
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
