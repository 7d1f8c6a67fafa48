package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nlexplain/internal/segment"
	"nlexplain/internal/table"
	"nlexplain/internal/wal"
)

// The representation fixtures: one logical table cut into a base and
// two batches of appended rows. The cells are chosen for what a
// storage layout could get wrong — a key group with three spellings
// (" Athens", "athens", "ATHENS") and one with a trailing pad, two date
// layouts of one day, padded and re-punctuated numbers sharing a key,
// empty and blank cells, NaN in two cases, the non-ASCII fold pair
// 'ſ'/'S', a cell with a comma, a quote and a newline.
var (
	reprColumns = []string{"City", "Opened", "Games", "Note"}
	reprBase    = [][]string{
		{" Athens", "June 8, 2013", " 42 ", ""},
		{"athens", "2013-06-08", "42", "NaN"},
		{"Paris", "1896-04-06", "1,234", "ſ"},
		{"ATHENS", "June 8 2013", "$1,234", "S"},
		{"", "n/a", "1234", "s"},
	}
	reprFirst = [][]string{
		{"paris ", "", "-0", "nan"},
		{"Ünïcode", "06/08/2013", "0", " "},
		{"Athens", "April 6, 1896", "1e3", "a,b \"c\"\nd"},
	}
	reprSecond = [][]string{
		{"ünïcode", "8 June 2013", "1000", "\t"},
		{" Athens", "1896", "42", "Straße"},
		{"Rio de Janeiro", "Jun 8, 2013", "inf", ""},
	}
)

func concatRows(parts ...[][]string) [][]string {
	var out [][]string
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// bigReprRows is the 131072 x 6 shape the scan traffic runs on: two
// sequence columns, two low-cardinality text columns and two numeric
// columns of middling cardinality.
func bigReprRows() ([]string, [][]string) {
	rng := rand.New(rand.NewSource(7))
	rows := make([][]string, 131072)
	for i := range rows {
		rows[i] = []string{
			strconv.Itoa(i), strconv.Itoa(i),
			"Nation" + strconv.Itoa(rng.Intn(40)), "City" + strconv.Itoa(rng.Intn(24)),
			strconv.Itoa(rng.Intn(1_000_000)), strconv.Itoa(rng.Intn(10_000)),
		}
	}
	return []string{"Seq", "Tick", "Nation", "City", "Games", "Score"}, rows
}

func mustNew(t *testing.T, name string, columns []string, rows [][]string) *table.Table {
	t.Helper()
	tab, err := table.New(name, columns, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func mustAppend(t *testing.T, tab *table.Table, rows [][]string) *table.Table {
	t.Helper()
	next, err := tab.Append(rows)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

func sameCellValue(a, b table.Value) bool {
	return a.Kind == b.Kind && a.Str == b.Str &&
		math.Float64bits(a.Num) == math.Float64bits(b.Num)
}

func sameZoneMaps(a, b []table.Zone) bool {
	return slices.EqualFunc(a, b, func(x, y table.Zone) bool {
		return math.Float64bits(x.Min) == math.Float64bits(y.Min) && math.Float64bits(x.Max) == math.Float64bits(y.Max) &&
			x.NumCount == y.NumCount && x.NaNCount == y.NaNCount
	})
}

// assertSameRelation compares two tables that should hold one relation
// on every accessor the executors, the parser and the durability layer
// read, and on the content hash cache keys embed.
func assertSameRelation(t *testing.T, label string, got, want *table.Table) {
	t.Helper()
	if got.Name() != want.Name() || got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("%s: %q %dx%d, want %q %dx%d", label, got.Name(), got.NumRows(), got.NumCols(), want.Name(), want.NumRows(), want.NumCols())
	}
	if !slices.Equal(got.Columns(), want.Columns()) {
		t.Fatalf("%s: columns %q, want %q", label, got.Columns(), want.Columns())
	}
	if g, w := contentVersion(got), contentVersion(want); g != w {
		t.Fatalf("%s: contentVersion %s, want %s", label, g, w)
	}
	absent := table.StringValue("no such cell anywhere")
	for c := 0; c < want.NumCols(); c++ {
		if i, ok := got.ColumnIndex(want.Column(c)); !ok || i != c {
			t.Fatalf("%s: ColumnIndex(%q) = %d, %v", label, want.Column(c), i, ok)
		}
		for r := 0; r < want.NumRows(); r++ {
			if got.Raw(r, c) != want.Raw(r, c) {
				t.Fatalf("%s: Raw(%d,%d) = %q, want %q", label, r, c, got.Raw(r, c), want.Raw(r, c))
			}
			v := want.Value(r, c)
			if !sameCellValue(got.Value(r, c), v) {
				t.Fatalf("%s: Value(%d,%d) = %#v, want %#v", label, r, c, got.Value(r, c), v)
			}
			g, w := got.RowsFor(c, v), want.RowsFor(c, v)
			if !slices.Equal(g, w) || !slices.Contains(g, int32(r)) {
				t.Fatalf("%s: RowsFor(%d, %v) = %v, want %v holding %d", label, c, v, g, w, r)
			}
		}
		if g := got.RowsFor(c, absent); len(g) != 0 {
			t.Fatalf("%s: RowsFor of an absent value = %v", label, g)
		}
		sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
		if gn, wn := got.ColumnNums(c), want.ColumnNums(c); (gn == nil) != (wn == nil) || !slices.EqualFunc(gn, wn, sameBits) {
			t.Fatalf("%s: ColumnNums(%d) diverge", label, c)
		}
		if got.ColumnAllNumeric(c) != want.ColumnAllNumeric(c) || got.ColumnIndexable(c) != want.ColumnIndexable(c) {
			t.Fatalf("%s: column %d flags diverge", label, c)
		}
		if g, w := got.DistinctColumnValues(c), want.DistinctColumnValues(c); !slices.EqualFunc(g, w, sameCellValue) {
			t.Fatalf("%s: DistinctColumnValues(%d) = %v, want %v", label, c, g, w)
		}
		if g, w := got.NumericSortedRows(c), want.NumericSortedRows(c); !slices.Equal(g, w) {
			t.Fatalf("%s: NumericSortedRows(%d) = %v, want %v", label, c, g, w)
		}
		if gz, wz := got.ColumnZones(c), want.ColumnZones(c); !sameZoneMaps(gz, wz) {
			t.Fatalf("%s: zones of column %d\n got %+v\nwant %+v", label, c, gz, wz)
		}
	}
}

func csvOf(t *testing.T, columns []string, rows [][]string) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.WriteAll(append([][]string{columns}, rows...)); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}

// loggedRegisters registers tab in a fresh durable store under dir and
// returns the store with the payloads of the register records its log
// now holds.
func loggedRegisters(t *testing.T, dir string, tab *table.Table) (*Store, [][]byte) {
	t.Helper()
	st := openDurable(t, dir)
	if _, err := st.Register(tab); err != nil {
		t.Fatal(err)
	}
	logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("wal files %v, %v", logs, err)
	}
	res, err := wal.Scan(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for _, rec := range res.Records {
		if rec.Tag == tagRegister {
			payloads = append(payloads, rec.Data)
		}
	}
	return st, payloads
}

// throughWAL registers tab, then recovers it in a second store from a
// copy of the log alone: the register record's round trip.
func throughWAL(t *testing.T, tab *table.Table) *table.Table {
	t.Helper()
	dir := t.TempDir()
	st, _ := loggedRegisters(t, dir, tab)
	defer st.Close()
	replayDir := t.TempDir()
	logs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	data, err := os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(replayDir, filepath.Base(logs[0])), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := openDurable(t, replayDir)
	defer st2.Close()
	if n := st2.dur.replayedRecords.Load(); n != 1 {
		t.Fatalf("replayed %d records, want 1", n)
	}
	snap, ok := st2.Get(tab.Name())
	if !ok {
		t.Fatalf("table %q not replayed", tab.Name())
	}
	return snap.Table()
}

// throughSegment registers tab, checkpoints it into a segment and
// recovers it in a second store from manifest and segment.
func throughSegment(t *testing.T, tab *table.Table) *table.Table {
	t.Helper()
	dir := t.TempDir()
	st := openDurable(t, dir)
	if _, err := st.Register(tab); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openDurable(t, dir)
	defer st2.Close()
	if n := st2.dur.replayedRecords.Load(); n != 0 {
		t.Fatalf("replayed %d records after a clean close, want 0", n)
	}
	snap, ok := st2.Get(tab.Name())
	if !ok {
		t.Fatalf("table %q not restored", tab.Name())
	}
	return snap.Table()
}

// TestTableRepresentationIndependentOfStorePath is the one-table
// property: however a relation reached memory — built whole, read from
// CSV, grown by chained appends, replayed from its register record,
// restored from its segment — every accessor and the content hash
// agree, and two successors of one parent never see each other's rows.
func TestTableRepresentationIndependentOfStorePath(t *testing.T) {
	all := concatRows(reprBase, reprFirst, reprSecond)
	want := mustNew(t, "repr", reprColumns, all)

	fromCSV, err := table.FromCSV("repr", csvOf(t, reprColumns, all))
	if err != nil {
		t.Fatal(err)
	}
	assertSameRelation(t, "FromCSV", fromCSV, want)

	parent := mustNew(t, "repr", reprColumns, reprBase)
	first := mustAppend(t, parent, reprFirst)
	second := mustAppend(t, parent, reprSecond)
	chained := mustAppend(t, first, reprSecond)
	assertSameRelation(t, "chained appends", chained, want)
	assertSameRelation(t, "first successor", first, mustNew(t, "repr", reprColumns, concatRows(reprBase, reprFirst)))
	assertSameRelation(t, "second successor", second, mustNew(t, "repr", reprColumns, concatRows(reprBase, reprSecond)))
	assertSameRelation(t, "parent after its successors", parent, mustNew(t, "repr", reprColumns, reprBase))

	for label, tab := range map[string]*table.Table{"built whole": want, "read from CSV": fromCSV, "grown by appends": chained} {
		assertSameRelation(t, label+", register record round trip", throughWAL(t, tab), want)
		assertSameRelation(t, label+", segment round trip", throughSegment(t, tab), want)
	}

	empty := mustNew(t, "empty", reprColumns, nil)
	emptyCSV, err := table.FromCSV("empty", csvOf(t, reprColumns, nil))
	if err != nil {
		t.Fatal(err)
	}
	assertSameRelation(t, "header-only FromCSV", emptyCSV, empty)
	assertSameRelation(t, "header-only Append of nothing", mustAppend(t, empty, nil), empty)
	assertSameRelation(t, "header-only register record round trip", throughWAL(t, empty), empty)
	assertSameRelation(t, "header-only segment round trip", throughSegment(t, empty), empty)
	grown := mustAppend(t, empty, all)
	assertSameRelation(t, "header-only grown to the full table", grown, mustNew(t, "empty", reprColumns, all))
}

// goldenFixtures are the tables whose on-disk bytes are pinned: the
// representation fixture built whole, the same relation grown by two
// appends (generation 3), a header-only table, and the 131072 x 6 scan
// table (skipped with -short). register is the SHA-256 of the register
// record's payload, segment that of the checkpointed segment file;
// registerPerByte and segmentPerByte bound their lengths per byte of
// the relation they hold as CSV (TestSegmentBytesPerUserByte).
var goldenFixtures = []struct {
	name                            string
	build                           func(t *testing.T) (base *table.Table, appends [][][]string)
	big                             bool
	register, segment               string
	registerPerByte, segmentPerByte float64
}{
	{
		name: "repr",
		build: func(t *testing.T) (*table.Table, [][][]string) {
			return mustNew(t, "repr", reprColumns, concatRows(reprBase, reprFirst, reprSecond)), nil
		},
		register:        "5d85d540fbcc4d73d4b861d0617182460399c6fafa2f6b667ecd6d8db86a64fe",
		segment:         "caff1dec15b434d4fb5a5c19307718b08a047fad9f67ccabc3e1358a944bc006",
		registerPerByte: 1.0599, segmentPerByte: 1.1217,
	},
	{
		name: "repr-appended",
		build: func(t *testing.T) (*table.Table, [][][]string) {
			return mustNew(t, "repr", reprColumns, reprBase), [][][]string{reprFirst, reprSecond}
		},
		register:        "6656c8abde0e51282b7d1999dc6b91a1f5ad014aeb1b779c077a4d6a38ef9fc8",
		segment:         "f2e7a58bc4a06e7737d3620f505c4830bab3ffef591f74baa752dcb0cec730bc",
		registerPerByte: 1.1915, segmentPerByte: 1.1217,
	},
	{
		name: "header-only",
		build: func(t *testing.T) (*table.Table, [][][]string) {
			return mustNew(t, "empty", reprColumns, nil), nil
		},
		register:        "6c53007d7b19bc8b2d2546090a94447a84917c39ae7f208a661e5d7242f62c4f",
		segment:         "dcf87b72afa4adbe2b4252319c4ab72b0a0137ab42a8a5d932c93d7bd32764c2",
		registerPerByte: 2.2174, segmentPerByte: 2.7940,
	},
	{
		name: "big",
		big:  true,
		build: func(t *testing.T) (*table.Table, [][][]string) {
			columns, rows := bigReprRows()
			return mustNew(t, "big", columns, rows), nil
		},
		register:        "0e32760fede32be8a0a11800582d651739cf54c39edcfed1a01abd89d7ba5c25",
		segment:         "661185167358666afd0fba611ac95857a81617a0fa77f429f022e4f0eb1d7537",
		registerPerByte: 0.5912, segmentPerByte: 0.5914,
	},
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestRegisterRecordBytesGolden pins the WAL register record byte for
// byte: the payload a registration logs hashes to the recorded value,
// whatever form the table holds its cells in, and is the snapshot's
// segment body.
func TestRegisterRecordBytesGolden(t *testing.T) {
	for _, fx := range goldenFixtures {
		t.Run(fx.name, func(t *testing.T) {
			if fx.big && testing.Short() {
				t.Skip("131072-row fixture")
			}
			base, _ := fx.build(t)
			st, payloads := loggedRegisters(t, t.TempDir(), base)
			defer st.Close()
			if len(payloads) != 1 {
				t.Fatalf("%d register records, want 1", len(payloads))
			}
			if got := sha256Hex(payloads[0]); got != fx.register {
				t.Errorf("register record of %s hashes to %s, want %s", fx.name, got, fx.register)
			}
			snap, _ := st.Get(base.Name())
			meta := segment.Meta{Name: base.Name(), Gen: snap.Gen(), Version: snap.Version(), Columns: base.Columns(), Rows: base.NumRows()}
			if !bytes.Equal(payloads[0], segment.AppendTable(nil, meta, snap.Table())) {
				t.Errorf("register record of %s is not the snapshot's segment body", fx.name)
			}
		})
	}
}

// TestRegisterLongCell registers, on a durable store, tables whose
// last new dictionary entry is longer than a piece of a streamed
// register record: a one-cell table and one with such an entry ahead
// of its codes and of another column. The record is the snapshot's
// segment body, the relation comes back from the log alone and from a
// checkpoint, and the checkpoint, which waits for every mutation still
// logging, runs.
func TestRegisterLongCell(t *testing.T) {
	long := strings.Repeat("x", 70000)
	for _, tab := range []*table.Table{
		mustNew(t, "onecell", []string{"Cell"}, [][]string{{long}}),
		mustNew(t, "lastlong", []string{"Key", "Note", "N"}, [][]string{
			{"a", "p", "1"}, {"b", "q", "2"}, {"a", "p", "3"}, {"c", long, "4"},
		}),
	} {
		dir := t.TempDir()
		st, payloads := loggedRegisters(t, dir, tab)
		snap, _ := st.Get(tab.Name())
		meta := segment.Meta{Name: tab.Name(), Gen: snap.Gen(), Version: snap.Version(), Columns: tab.Columns(), Rows: tab.NumRows()}
		if len(payloads) != 1 || !bytes.Equal(payloads[0], segment.AppendTable(nil, meta, snap.Table())) {
			t.Fatalf("%s: %d register records, not the snapshot's segment body", tab.Name(), len(payloads))
		}
		assertSameRelation(t, tab.Name()+" register record round trip", throughWAL(t, tab), tab)
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		want := captureState(st)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st2 := openDurable(t, dir)
		checkRecovered(t, st2, want)
		got, _ := st2.Get(tab.Name())
		assertSameRelation(t, tab.Name()+" checkpointed", got.Table(), tab)
		if err := st2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSegmentBytesGolden pins the segment file byte for byte: what a
// checkpoint writes for each fixture hashes to the recorded value, its
// body is the snapshot's register record payload, and segment.Write
// fed the same snapshot's rows writes the same bytes.
func TestSegmentBytesGolden(t *testing.T) {
	for _, fx := range goldenFixtures {
		t.Run(fx.name, func(t *testing.T) {
			if fx.big && testing.Short() {
				t.Skip("131072-row fixture")
			}
			base, appends := fx.build(t)
			dir := t.TempDir()
			st := openDurable(t, dir)
			defer st.Close()
			snap, err := st.Register(base)
			if err != nil {
				t.Fatal(err)
			}
			for _, rows := range appends {
				if snap, err = st.Append(base.Name(), rows); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
			if err != nil || len(segs) != 1 {
				t.Fatalf("segment files %v, %v", segs, err)
			}
			data, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex(data); got != fx.segment {
				t.Errorf("segment of %s hashes to %s, want %s", fx.name, got, fx.segment)
			}
			tab := snap.Table()
			meta := segment.Meta{Name: tab.Name(), Gen: snap.Gen(), Version: snap.Version(), Columns: tab.Columns(), Rows: tab.NumRows()}
			// A segment file is its magic and checksum, 12 bytes, then
			// the body.
			if body, payload := data[min(12, len(data)):], segment.AppendTable(nil, meta, tab); !bytes.Equal(body, payload) {
				t.Errorf("segment body of %s (%d bytes) is not the snapshot's register payload (%d bytes)", fx.name, len(body), len(payload))
			}
			direct := filepath.Join(t.TempDir(), "direct.seg")
			if err := segment.Write(direct, meta, tab.RawRows(), nil); err != nil {
				t.Fatal(err)
			}
			again, err := os.ReadFile(direct)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, data) {
				t.Errorf("segment.Write over the snapshot's rows differs from the checkpointed file (%d vs %d bytes)", len(again), len(data))
			}
		})
	}
}

// buildChunkRows is the records FromCSV hands its columns at a time,
// and the fewest a build fills its columns side by side for.
const buildChunkRows = table.BatchRows

// chunkReprRows is an n-record relation shaped for the seams of a
// build that fills its columns a batch of records at a time: a key
// group split late ("Athens" after "athens", in the last record), a
// spelling first seen in the last record, a NaN cell, sequence and
// repeating numeric columns.
func chunkReprRows(n int) [][]string {
	cities := []string{"athens", "paris", "rome", "oslo", "lima"}
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{cities[i%len(cities)], strconv.Itoa(i), strconv.Itoa(i * 7919 % 1000), "note " + strconv.Itoa(i%3)}
	}
	if n > 0 {
		rows[n/2][2] = "NaN"
		rows[n-1][0] = "Athens"
		rows[n-1][3] = "first seen last"
	}
	return rows
}

// assertSameColumns compares two tables that should hold one relation
// column by column: the dictionary and codes a segment stores, the key
// codes and postings the executors read, the numeric vector, the flags,
// the zones and the content hash, and every cell's value. It reads each
// posting list once per key rather than once per cell, which keeps a
// 131072-record comparison cheap.
func assertSameColumns(t *testing.T, label string, got, want *table.Table) {
	t.Helper()
	if got.Name() != want.Name() || got.NumRows() != want.NumRows() || !slices.Equal(got.Columns(), want.Columns()) {
		t.Fatalf("%s: %q %dx%v, want %q %dx%v", label, got.Name(), got.NumRows(), got.Columns(), want.Name(), want.NumRows(), want.Columns())
	}
	if g, w := contentVersion(got), contentVersion(want); g != w {
		t.Fatalf("%s: contentVersion %s, want %s", label, g, w)
	}
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for c := 0; c < want.NumCols(); c++ {
		gd, gc := got.ColumnDictionary(c)
		wd, wc := want.ColumnDictionary(c)
		if gd.Len() != wd.Len() || !slices.Equal(gc, wc) {
			t.Fatalf("%s: column %d: %d entries, codes differ: %v", label, c, gd.Len(), !slices.Equal(gc, wc))
		}
		for e := 0; e < wd.Len(); e++ {
			if gd.Entry(e) != wd.Entry(e) {
				t.Fatalf("%s: column %d entry %d = %q, want %q", label, c, e, gd.Entry(e), wd.Entry(e))
			}
		}
		if got.NumKeys(c) != want.NumKeys(c) || !slices.Equal(got.ColumnKeyCodes(c), want.ColumnKeyCodes(c)) {
			t.Fatalf("%s: column %d key codes differ", label, c)
		}
		if gn, wn := got.ColumnNums(c), want.ColumnNums(c); (gn == nil) != (wn == nil) || !slices.EqualFunc(gn, wn, sameBits) {
			t.Fatalf("%s: ColumnNums(%d) diverge", label, c)
		}
		if got.ColumnAllNumeric(c) != want.ColumnAllNumeric(c) || got.ColumnIndexable(c) != want.ColumnIndexable(c) {
			t.Fatalf("%s: column %d flags diverge", label, c)
		}
		distinct := want.DistinctColumnValues(c)
		if g := got.DistinctColumnValues(c); !slices.EqualFunc(g, distinct, sameCellValue) {
			t.Fatalf("%s: DistinctColumnValues(%d) = %v, want %v", label, c, g, distinct)
		}
		for _, v := range distinct {
			if g, w := got.RowsFor(c, v), want.RowsFor(c, v); !slices.Equal(g, w) {
				t.Fatalf("%s: RowsFor(%d, %v) diverges", label, c, v)
			}
		}
		for r := 0; r < want.NumRows(); r++ {
			if !sameCellValue(got.Value(r, c), want.Value(r, c)) || got.CellKind(r, c) != want.CellKind(r, c) {
				t.Fatalf("%s: Value(%d,%d) = %#v, want %#v", label, r, c, got.Value(r, c), want.Value(r, c))
			}
		}
		if g, w := got.NumericSortedRows(c), want.NumericSortedRows(c); !slices.Equal(g, w) {
			t.Fatalf("%s: NumericSortedRows(%d) diverge", label, c)
		}
		if !sameZoneMaps(got.ColumnZones(c), want.ColumnZones(c)) {
			t.Fatalf("%s: zones of column %d diverge", label, c)
		}
	}
}

// TestTableRepresentationAcrossChunks is the one-table property at the
// sizes where a build changes how it hands records to its columns: a
// header-only table, one record, a batch less one, a batch, a batch
// and one, two batches and one, the same four around a morsel of
// records (table.ZoneRows, a zone), and the 131072-record scan size
// (-short skips it). The CSV's header carries a byte-order mark. FromCSV, an
// Append onto a third of the relation, an Append onto the empty table
// and the register record and segment round trips all build the
// relation New builds.
func TestTableRepresentationAcrossChunks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // batches fill their columns side by side, even on one CPU
	columns := []string{"City", "Seq", "Score", "Note"}
	for _, n := range []int{0, 1, buildChunkRows - 1, buildChunkRows, buildChunkRows + 1, 2*buildChunkRows + 1,
		table.ZoneRows - 1, table.ZoneRows, table.ZoneRows + 1, 2*table.ZoneRows + 1, 131072} {
		if n == 131072 && testing.Short() {
			continue
		}
		rows := chunkReprRows(n)
		want := mustNew(t, "chunks", columns, rows)
		label := strconv.Itoa(n) + " records"

		bom := slices.Clone(columns)
		bom[0] = "\ufeff" + bom[0]
		fromCSV, err := table.FromCSV("chunks", csvOf(t, bom, rows))
		if err != nil {
			t.Fatal(err)
		}
		assertSameColumns(t, label+", FromCSV", fromCSV, want)
		assertSameColumns(t, label+", Append onto a third", mustAppend(t, mustNew(t, "chunks", columns, rows[:n/3]), rows[n/3:]), want)
		assertSameColumns(t, label+", Append onto the empty table", mustAppend(t, mustNew(t, "chunks", columns, nil), rows), want)
		assertSameColumns(t, label+", register record round trip", throughWAL(t, fromCSV), want)
		assertSameColumns(t, label+", segment round trip", throughSegment(t, fromCSV), want)
	}
}

// TestFromCSVErrorAcrossChunks pins FromCSV's error text for a ragged
// record and for a bare quote that sit in the second batch of records,
// and in the second morsel.
func TestFromCSVErrorAcrossChunks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	columns := []string{"City", "Seq", "Score", "Note"}
	for _, n := range []int{buildChunkRows + 5, table.ZoneRows + 5} {
		var doc bytes.Buffer
		if _, err := csvOf(t, columns, chunkReprRows(n)).WriteTo(&doc); err != nil {
			t.Fatal(err)
		}
		// Records are numbered from 1 after the header, lines from 1 at it.
		for _, tc := range []struct {
			name, tail, want string
		}{
			{"ragged", "oslo,7\n", fmt.Sprintf(`table "chunks": csv row %d has 2 fields, want 4`, n+1)},
			{"bare quote", "oslo,7,8,a\"b\n", fmt.Sprintf(`table "chunks": reading csv: parse error on line %d, column 11: bare " in non-quoted-field`, n+2)},
		} {
			_, err := table.FromCSV("chunks", strings.NewReader(doc.String()+tc.tail+"rome,1,2,3\n"))
			if err == nil || err.Error() != tc.want {
				t.Errorf("%d records, %s: FromCSV error %v, want %s", n, tc.name, err, tc.want)
			}
		}
	}
}
