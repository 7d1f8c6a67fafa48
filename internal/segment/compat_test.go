package segment

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
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

// manifestIndented is the catalog testdata/manifest_indented holds, as
// WriteManifest spelled it while it indented the JSON: two spaces a
// level, one field a line.
var manifestIndented = Manifest{Schema: 1, Gen: 42, WALSeq: 7, Tables: []TableRef{
	{Name: "olympics", File: "seg-0000000000000003.seg", Gen: 3, Version: "8c1f0a2b4d6e9f01", Rows: 6, Cols: 4},
	{Name: "Médailles 2004", File: "seg-0000000000000011.seg", Gen: 17, Version: "00ffa3c7e41b9d52", Rows: 131072, Cols: 6},
	{Name: "empty", File: "seg-0000000000000029.seg", Gen: 41, Version: "5e0d1c2b3a490817", Rows: 0, Cols: 2},
}}

// TestLoadIndentedManifest: a data directory whose MANIFEST an earlier
// build wrote indented still opens, to the same catalog.
func TestLoadIndentedManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), readFile(t, filepath.Join("testdata", "manifest_indented")), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadManifest(nil, dir)
	if err != nil || !ok {
		t.Fatalf("LoadManifest: ok = %v, err = %v", ok, err)
	}
	if got.Schema != manifestIndented.Schema || got.Gen != manifestIndented.Gen || got.WALSeq != manifestIndented.WALSeq ||
		!slices.Equal(got.Tables, manifestIndented.Tables) {
		t.Fatalf("loaded %+v, want %+v", *got, manifestIndented)
	}
}

// goldenV3 are the segment files testdata/golden_v3 holds: what a
// checkpoint of each of the store's golden fixtures wrote under schema
// 3, every first appearance of a spelling spelled out as text. The
// 131072 x 6 one is gzipped. The store's TestSchema3GoldenRestores
// holds each to its fixture's relation, restored from the file and
// replayed from a WAL register record carrying its body.
var goldenV3 = []struct {
	file   string
	sha256 string // of the segment file, uncompressed
	meta   Meta
}{
	{"repr.seg", "caff1dec15b434d4fb5a5c19307718b08a047fad9f67ccabc3e1358a944bc006",
		Meta{Name: "repr", Gen: 1, Version: "86aa7c9d38a41ba3", Columns: []string{"City", "Opened", "Games", "Note"}, Rows: 11}},
	{"repr-appended.seg", "f2e7a58bc4a06e7737d3620f505c4830bab3ffef591f74baa752dcb0cec730bc",
		Meta{Name: "repr", Gen: 3, Version: "86aa7c9d38a41ba3", Columns: []string{"City", "Opened", "Games", "Note"}, Rows: 11}},
	{"header-only.seg", "dcf87b72afa4adbe2b4252319c4ab72b0a0137ab42a8a5d932c93d7bd32764c2",
		Meta{Name: "empty", Gen: 1, Version: "d108a63fe9f7e54a", Columns: []string{"City", "Opened", "Games", "Note"}}},
	{"big.seg.gz", "661185167358666afd0fba611ac95857a81617a0fa77f429f022e4f0eb1d7537",
		Meta{Name: "big", Gen: 1, Version: "76341b213449c6fc", Columns: []string{"Seq", "Tick", "Nation", "City", "Games", "Score"}, Rows: 131072}},
}

// readGolden reads a segment file of testdata/golden_v3, gunzipping a
// .gz one.
func readGolden(t *testing.T, file string) []byte {
	t.Helper()
	data := readFile(t, filepath.Join("testdata", "golden_v3", file))
	if !strings.HasSuffix(file, ".gz") {
		return data
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if data, err = io.ReadAll(zr); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestReadGoldenSchema3Segments: the schema-3 segment files of the
// golden fixtures read back under the meta their checkpoint wrote, and
// the table each holds survives a round trip through the current
// encoder: the same dictionary, codes, key codes and numbers in every
// column.
func TestReadGoldenSchema3Segments(t *testing.T) {
	for _, g := range goldenV3 {
		t.Run(g.file, func(t *testing.T) {
			data := readGolden(t, g.file)
			if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != g.sha256 {
				t.Fatalf("%s hashes to %x, want %s", g.file, sum, g.sha256)
			}
			if schema := data[len(magic)+4]; schema != 3 {
				t.Fatalf("%s is of schema %d, want 3", g.file, schema)
			}
			path := filepath.Join(t.TempDir(), "seg.seg")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			m, tab := readTableFile(t, path)
			if m.Name != g.meta.Name || m.Gen != g.meta.Gen || m.Version != g.meta.Version || m.Rows != g.meta.Rows || !slices.Equal(m.Columns, g.meta.Columns) {
				t.Fatalf("meta %+v, want %+v", m, g.meta)
			}
			_, again, err := DecodeTable(AppendTable(nil, m, tab), g.file)
			if err != nil {
				t.Fatal(err)
			}
			sameStorage(t, g.file+" re-encoded", again, tab)
		})
	}
}

// sameStorage compares two tables column by column as a segment stores
// them and the executors read them: dictionary, codes, key codes and
// numbers.
func sameStorage(t *testing.T, label string, got, want *table.Table) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("%s: %dx%d, want %dx%d", label, got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for c := 0; c < want.NumCols(); c++ {
		gd, gc := got.ColumnDictionary(c)
		wd, wc := want.ColumnDictionary(c)
		if gd.Len() != wd.Len() || !slices.Equal(gc, wc) {
			t.Fatalf("%s: column %d: %d entries, want %d, or the codes differ", label, c, gd.Len(), wd.Len())
		}
		for e := 0; e < wd.Len(); e++ {
			if gd.Entry(e) != wd.Entry(e) {
				t.Fatalf("%s: column %d entry %d = %q, want %q", label, c, e, gd.Entry(e), wd.Entry(e))
			}
		}
		if got.NumKeys(c) != want.NumKeys(c) || !slices.Equal(got.ColumnKeyCodes(c), want.ColumnKeyCodes(c)) {
			t.Fatalf("%s: column %d: key codes differ", label, c)
		}
		if g, w := got.ColumnNums(c), want.ColumnNums(c); (g == nil) != (w == nil) || !slices.EqualFunc(g, w, sameBits) {
			t.Fatalf("%s: column %d: numbers differ", label, c)
		}
	}
}
