package segment

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nlexplain/internal/table"
)

var testMeta = Meta{
	Name:    "olympics",
	Gen:     42,
	Version: "00deadbeef001234",
	Columns: []string{"Nation", "City", "Year"},
}

var testRows = [][]string{
	{"Greece", "Athens", "1896"},
	{"France", "Paris", "1900"},
	{"Greece", "Athens", "2004"},
	{"Japan", "Tokyo", "1964"},
}

func TestSegmentRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg-001.seg")
	if err := Write(path, testMeta, testRows, nil); err != nil {
		t.Fatalf("Write: %v", err)
	}
	m, rows, zones, err := Read(path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if m.Name != testMeta.Name || m.Gen != testMeta.Gen || m.Version != testMeta.Version {
		t.Fatalf("meta round trip: %+v", m)
	}
	if zones != nil {
		t.Fatalf("segment written without zones decoded %d zone columns", len(zones))
	}
	if len(m.Columns) != 3 || m.Columns[1] != "City" {
		t.Fatalf("columns round trip: %v", m.Columns)
	}
	if m.Rows != len(testRows) || len(rows) != len(testRows) {
		t.Fatalf("rows = %d/%d, want %d", m.Rows, len(rows), len(testRows))
	}
	for r := range testRows {
		for c := range testRows[r] {
			if rows[r][c] != testRows[r][c] {
				t.Fatalf("cell (%d,%d) = %q, want %q", r, c, rows[r][c], testRows[r][c])
			}
		}
	}
	// The decoded rows must build a valid table.
	tb, err := table.New(m.Name, m.Columns, rows)
	if err != nil {
		t.Fatalf("table.New over decoded rows: %v", err)
	}
	if tb.NumRows() != 4 || tb.Raw(3, 1) != "Tokyo" {
		t.Fatalf("rebuilt table wrong: %d rows", tb.NumRows())
	}
}

func TestSegmentEmptyTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.seg")
	m := Meta{Name: "empty", Gen: 1, Version: "v", Columns: []string{"A", "B"}}
	if err := Write(path, m, nil, nil); err != nil {
		t.Fatal(err)
	}
	got, rows, _, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 0 || len(rows) != 0 || len(got.Columns) != 2 {
		t.Fatalf("empty round trip: %+v, %d rows", got, len(rows))
	}
}

func TestSegmentChecksumDetectsFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.seg")
	if err := Write(path, testMeta, testRows, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{len(magic) + 4, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x01
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := Read(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: err=%v, want ErrCorrupt", off, err)
		}
	}
	// Truncation must also be rejected.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Read(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated segment: err=%v, want ErrCorrupt", err)
	}
	if err := os.WriteFile(path, []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Read(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err=%v, want ErrCorrupt", err)
	}
}

func TestSegmentZoneFooterColumnMismatch(t *testing.T) {
	// A footer covering a different number of columns than the header is
	// structural corruption, even when the checksum passes. This one
	// covers 2 of 3 columns.
	m := testMeta
	m.Rows = 1
	body := appendCells(appendHeader(nil, schemaSeg, m), "Greece", "Athens", "1896")
	body = withZoneFooter(append(body, 0), 2, 1)
	path := filepath.Join(t.TempDir(), "bad-zones.seg")
	if err := os.WriteFile(path, frame(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Read(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("partial zone footer: err=%v, want ErrCorrupt", err)
	}
}

// withZoneFooter replaces body's empty footer with a zone footer as
// earlier builds wrote it: ncols columns of nzones zones, each zone two
// zero float64s, two empty key bounds and three zero counts.
func withZoneFooter(body []byte, ncols, nzones int) []byte {
	b := binary.AppendUvarint(body[:len(body)-1:len(body)-1], uint64(ncols))
	for range ncols {
		b = binary.AppendUvarint(b, uint64(nzones))
		for range nzones {
			b = append(b, make([]byte, 16)...)
			b = append(b, 0, 0, 0, 0, 0)
		}
	}
	return b
}

// appendString appends s as a body spells a string: its length, then
// its bytes.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendHeader appends a body's header under schema: m's name,
// generation, version and columns, and its number of records.
func appendHeader(b []byte, schema uint64, m Meta) []byte {
	b = binary.AppendUvarint(b, schema)
	b = appendString(b, m.Name)
	b = binary.AppendUvarint(b, m.Gen)
	b = appendString(b, m.Version)
	b = binary.AppendUvarint(b, uint64(len(m.Columns)))
	for _, c := range m.Columns {
		b = appendString(b, c)
	}
	return binary.AppendUvarint(b, uint64(m.Rows))
}

// appendCells appends a column's records as a body holds them: a
// string is spelled out as the column's next entry, an int repeats the
// entry of that number.
func appendCells(b []byte, cells ...any) []byte {
	for _, c := range cells {
		switch c := c.(type) {
		case string:
			b = binary.AppendUvarint(b, uint64(len(c))<<1|1)
			b = append(b, c...)
		case int:
			b = binary.AppendUvarint(b, uint64(c)<<1)
		}
	}
	return b
}

// TestSegmentOldSchemasRefused: bodies of schema 1 (no zone footer)
// and schema 2, which stored a column as its dictionary and then its
// codes, are corrupt to this reader, and the error names the schema.
func TestSegmentOldSchemasRefused(t *testing.T) {
	m := Meta{Name: "legacy", Gen: 7, Version: "vv", Columns: []string{"A"}, Rows: 2}
	for _, schema := range []uint64{1, 2} {
		body := appendHeader(nil, schema, m)
		body = binary.AppendUvarint(body, 1) // dictLen
		body = appendString(body, "x")
		body = binary.AppendUvarint(body, 0) // row 0 -> dict[0]
		body = binary.AppendUvarint(body, 0) // row 1 -> dict[0]
		if schema == 2 {
			body = binary.AppendUvarint(body, 0) // no zone footer columns
		}
		path := filepath.Join(t.TempDir(), "old.seg")
		if err := os.WriteFile(path, frame(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := Read(path)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "schema "+strconv.FormatUint(schema, 10)+",") {
			t.Errorf("schema-%d segment: err = %v, want ErrCorrupt naming the schema", schema, err)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, ok, err := LoadManifest(nil, dir)
	if err != nil || ok || m != nil {
		t.Fatalf("fresh dir: %v %v %v", m, ok, err)
	}
	want := &Manifest{
		Gen:    99,
		WALSeq: 7,
		Tables: []TableRef{
			{Name: "olympics", File: "seg-0000000000000063-0000.seg", Gen: 98, Version: "ab", Rows: 4, Cols: 3},
		},
	}
	if err := WriteManifest(nil, dir, want); err != nil {
		t.Fatalf("WriteManifest: %v", err)
	}
	got, ok, err := LoadManifest(nil, dir)
	if err != nil || !ok {
		t.Fatalf("LoadManifest: %v %v", ok, err)
	}
	if got.Gen != 99 || got.WALSeq != 7 || len(got.Tables) != 1 || got.Tables[0].File != want.Tables[0].File {
		t.Fatalf("manifest round trip: %+v", got)
	}
	// Overwrite is atomic-replace, old content fully gone.
	want.Gen = 100
	want.Tables = nil
	if err := WriteManifest(nil, dir, want); err != nil {
		t.Fatal(err)
	}
	got, _, err = LoadManifest(nil, dir)
	if err != nil || got.Gen != 100 || len(got.Tables) != 0 {
		t.Fatalf("manifest rewrite: %+v %v", got, err)
	}
	// Torn manifest bytes are a hard error, not a silent fresh start.
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{\"schema\":1,"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadManifest(nil, dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn manifest: err=%v, want ErrCorrupt", err)
	}
}

// TestManifestRejectsFileOutsideDir: a segment file must be one name
// inside the data directory, or the manifest is corrupt.
func TestManifestRejectsFileOutsideDir(t *testing.T) {
	for _, file := range []string{"", ".", "..", "../../dev/zero", "/dev/zero", "sub/seg.seg", `..\seg.seg`} {
		dir := t.TempDir()
		m := &Manifest{Tables: []TableRef{{Name: "t", File: file}}}
		if err := WriteManifest(nil, dir, m); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadManifest(nil, dir); !errors.Is(err, ErrCorrupt) {
			t.Errorf("file %q: err = %v, want ErrCorrupt", file, err)
		}
	}
}

// sameManifest says whether two manifests name the same catalog.
func sameManifest(a, b *Manifest) bool {
	return a.Schema == b.Schema && a.Gen == b.Gen && a.WALSeq == b.WALSeq && slices.Equal(a.Tables, b.Tables)
}

// FuzzLoadManifest holds the recovery root's loader to its contract on
// any bytes in MANIFEST: a manifest or ErrCorrupt, never a panic; and a
// manifest it accepts comes back the same through WriteManifest and
// LoadManifest again.
func FuzzLoadManifest(f *testing.F) {
	indented, err := os.ReadFile(filepath.Join("testdata", "manifest_indented"))
	if err != nil {
		f.Fatal(err)
	}
	compact, err := json.Marshal(manifestIndented)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(indented)
	f.Add(compact)
	for _, n := range []int{0, 1, len(compact) / 2, len(compact) - 2} {
		f.Add(compact[:n])
	}
	for _, file := range []string{"../seg-0000000000000003.seg", "/dev/zero", "sub/seg.seg", ".."} {
		f.Add([]byte(`{"schema":1,"gen":1,"wal_seq":1,"tables":[{"name":"t","file":"` + file + `","gen":1}]}`))
	}
	f.Add(bytes.Replace(compact, []byte(`"schema":1`), []byte(`"schema":2`), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, ok, err := LoadManifest(nil, dir)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("load error %v is not ErrCorrupt", err)
			}
			return
		}
		if !ok {
			t.Fatal("a MANIFEST that exists loaded as none")
		}
		want := *m
		if err := WriteManifest(nil, dir, m); err != nil {
			t.Fatal(err)
		}
		again, ok, err := LoadManifest(nil, dir)
		if err != nil || !ok {
			t.Fatalf("the rewritten manifest does not load: ok = %v, err = %v", ok, err)
		}
		if !sameManifest(again, &want) {
			t.Fatalf("loaded %+v, rewritten and loaded %+v", want, *again)
		}
	})
}

// frame wraps a body in the magic and its checksum.
func frame(body []byte) []byte {
	buf := append([]byte(magic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(buf[len(magic):], crc32.Checksum(body, castagnoli))
	return append(buf, body...)
}

// nonCanonical is a relation and a body for it the writer would not
// have produced: column K spells "b" out twice, and repeats the second
// copy as well as the first.
var nonCanonical = struct {
	meta Meta
	rows [][]string
	k, n []any // the two columns' records, for appendCells
}{
	meta: Meta{Name: "t", Gen: 3, Version: "v", Columns: []string{"K", "N"}, Rows: 7},
	rows: [][]string{{"b", "1"}, {"a", "2"}, {"b", "1"}, {"c", "3"}, {"a", "2"}, {"b", "1"}, {"b", "1"}},
	k:    []any{"b", "a", "b", "c", 1, 2, 0},
	n:    []any{"1", "2", 0, "3", 1, 0, 0},
}

// nonCanonicalBody encodes nonCanonical with columns k and n.
func nonCanonicalBody(k, n []any) []byte {
	body := appendHeader(nil, schemaSeg, nonCanonical.meta)
	body = appendCells(body, k...)
	body = appendCells(body, n...)
	return binary.AppendUvarint(body, 0) // no zone footer columns
}

// TestSegmentNonCanonicalDictionaryRestoresCanonical: a body the
// writer would not have produced — a spelling spelled out twice,
// repeats of either copy — restores to the very table the canonical
// file holds, and checkpoints back out as the canonical bytes. A
// repeat of an entry not yet spelled, and a spelling longer than the
// body, stay corruption.
func TestSegmentNonCanonicalDictionaryRestoresCanonical(t *testing.T) {
	meta, rows := nonCanonical.meta, nonCanonical.rows
	dir := t.TempDir()
	canonical := filepath.Join(dir, "canonical.seg")
	if err := Write(canonical, meta, rows, nil); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(canonical)
	if err != nil {
		t.Fatal(err)
	}

	odd := filepath.Join(dir, "odd.seg")
	if err := os.WriteFile(odd, frame(nonCanonicalBody(nonCanonical.k, nonCanonical.n)), 0o644); err != nil {
		t.Fatal(err)
	}
	m, tab, err := ReadTable(nil, odd)
	if err != nil {
		t.Fatalf("non-canonical body: %v", err)
	}
	for r := range rows {
		for c := range rows[r] {
			if tab.Raw(r, c) != rows[r][c] {
				t.Fatalf("cell (%d,%d) = %q, want %q", r, c, tab.Raw(r, c), rows[r][c])
			}
		}
	}
	if dict, _ := tab.ColumnDictionary(0); dict.Len() != 3 || dict.Entry(0) != "b" || dict.Entry(1) != "a" || dict.Entry(2) != "c" {
		t.Fatalf("restored dictionary has %d entries starting %q: not the canonical b, a, c", dict.Len(), dict.Entry(0))
	}
	rewritten := filepath.Join(dir, "rewritten.seg")
	if err := WriteTable(nil, rewritten, m, tab); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(rewritten)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("the restored table checkpoints to %d bytes that differ from the canonical %d", len(got), len(want))
	}

	// N's third record repeats entry 2 with two entries spelled.
	past := nonCanonicalBody(nonCanonical.k, []any{"1", "2", 2, "3", 1, 0, 0})
	if _, _, err := DecodeTable(past, "bad"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("repeat past the entries spelled: err = %v, want ErrCorrupt", err)
	}
	// K's last record spells 1000 bytes the body does not hold.
	over := appendCells(appendHeader(nil, schemaSeg, meta), nonCanonical.k[:6]...)
	over = append(binary.AppendUvarint(over, 1000<<1|1), "b"...)
	if _, _, err := DecodeTable(over, "bad"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("spelling past the body: err = %v, want ErrCorrupt", err)
	}
}

// TestEncodeTablePieces holds EncodeTable to AppendTable: its pieces,
// joined, are the body, none is over pieceBytes but one holding a
// single longer dictionary entry, a body that fits in one piece is
// emitted as one, and put's first error stops the encoder and is
// returned.
func TestEncodeTablePieces(t *testing.T) {
	small := table.MustNew("small", testMeta.Columns, testRows)
	rows := make([][]string, 40000)
	for i := range rows {
		rows[i] = []string{strconv.Itoa(i), "n" + strconv.Itoa(i%50), strconv.Itoa(i * 7)}
	}
	big := table.MustNew("big", []string{"Seq", "Nation", "Games"}, rows)
	// A spelling longer than a piece is put as one piece of its own, and
	// the records after it start the next.
	long := strings.Repeat("x", 70000)
	oneCell := table.MustNew("onecell", []string{"Cell"}, [][]string{{long}})
	lastLong := table.MustNew("lastlong", []string{"Key", "Note", "N"}, [][]string{
		{"a", "p", "1"}, {"b", "q", "2"}, {"a", "p", "3"}, {"c", long, "4"},
	})
	for _, tc := range []struct {
		tab    *table.Table
		pieces int // 0: more than one
		most   int // the longest piece allowed
	}{
		{small, 1, pieceBytes},
		{big, 0, pieceBytes},
		{oneCell, 0, uvarintLen(uint64(len(long))<<1|1) + len(long)},
		{lastLong, 0, uvarintLen(uint64(len(long))<<1|1) + len(long)},
	} {
		m := Meta{Name: tc.tab.Name(), Gen: 3, Version: "v", Columns: tc.tab.Columns(), Rows: tc.tab.NumRows()}
		want := AppendTable(nil, m, tc.tab)
		var got []byte
		n := 0
		err := EncodeTable(m, tc.tab, func(p []byte) error {
			if len(p) > tc.most {
				t.Fatalf("%s: piece of %d bytes", m.Name, len(p))
			}
			got = append(got, p...)
			n++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %d pieces join to %d bytes, not the %d-byte body", m.Name, n, len(got), len(want))
		}
		if tc.pieces == 1 && n != 1 || tc.pieces == 0 && n < 2 {
			t.Fatalf("%s: %d-byte body in %d pieces", m.Name, len(want), n)
		}
		full := errors.New("full")
		calls := 0
		err = EncodeTable(m, tc.tab, func([]byte) error {
			calls++
			return full
		})
		if err != full || calls != 1 {
			t.Fatalf("%s: failing put called %d times, EncodeTable returned %v", m.Name, calls, err)
		}
	}
}

// TestAppendTableSizedOnce pins the body a WAL register record carries:
// it decodes back to what went in, and is built in the one allocation
// its bound sized — cells of every length-prefix width included.
func TestAppendTableSizedOnce(t *testing.T) {
	columns := []string{"A", "B", "C"}
	rows := [][]string{
		{"", "x", strings.Repeat("y", 127)},
		{strings.Repeat("z", 128), strings.Repeat("w", 16384), "\x00\xff"},
	}
	tab := table.MustNew("name", columns, rows)
	m := Meta{Name: "name", Gen: 1 << 40, Version: "00ff", Columns: columns, Rows: len(rows)}
	var body []byte
	allocs := testing.AllocsPerRun(10, func() {
		body = AppendTable(nil, m, tab)
	})
	if allocs != 1 {
		t.Errorf("AppendTable made %v allocations, want 1", allocs)
	}
	got, gotTab, err := DecodeTable(body, "body")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != m.Name || got.Gen != m.Gen || got.Version != m.Version || got.Rows != m.Rows ||
		!slices.Equal(got.Columns, columns) || !slices.EqualFunc(gotTab.RawRows(), rows, slices.Equal[[]string]) {
		t.Fatalf("round trip changed the body: %+v %q", got, gotTab.RawRows())
	}
}

// fuzzSeedTables are the relations FuzzSegmentRead starts from: the
// shapes of the store's golden fixtures — several spellings of one key,
// dates, NaN, blanks, non-ASCII folds, a header-only table — plus one
// long enough to have a second zone.
func fuzzSeedTables() []*table.Table {
	long := make([][]string, table.ZoneRows+3)
	for i := range long {
		long[i] = []string{"n" + string(rune('a'+i%5)), string(rune('0' + i%10))}
	}
	return []*table.Table{
		table.MustNew(testMeta.Name, testMeta.Columns, testRows),
		table.MustNew("repr", []string{"City", "Opened", "Games", "Note"}, [][]string{
			{" Athens", "June 8, 2013", " 42 ", ""},
			{"athens", "2013-06-08", "42", "NaN"},
			{"ATHENS", "June 8 2013", "$1,234", "ſ"},
			{"", "n/a", "1234", "S"},
			{"Ünïcode", "", "-0", "a,b \"c\"\nd"},
		}),
		table.MustNew("empty", []string{"A", "B"}, nil),
		table.MustNew("long", []string{"K", "D"}, long),
	}
}

// FuzzSegmentRead feeds the decoder bodies the checksum would have let
// through — the fuzzer mutates the body, the frame is implied — and
// holds it to the recovery contract: a table or ErrCorrupt, never a
// panic, never memory out of proportion to the input; and a table that
// decodes re-encodes to a body that decodes to the same table, and
// encodes from there to the very same bytes.
func FuzzSegmentRead(f *testing.F) {
	for i, tab := range fuzzSeedTables() {
		m := Meta{Name: tab.Name(), Gen: uint64(i + 1), Version: "v", Columns: tab.Columns(), Rows: tab.NumRows()}
		body := AppendTable(nil, m, tab)
		f.Add(body)
		f.Add(withZoneFooter(body, tab.NumCols(), table.ZoneCount(tab.NumRows())))
	}
	f.Add(nonCanonicalBody(nonCanonical.k, nonCanonical.n))
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, tab, err := DecodeTable(body, "fuzz")
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+1024*len(body)); grew > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(body), grew, bound)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v is not ErrCorrupt", err)
			}
			return
		}
		if tab.NumRows() != m.Rows || tab.NumCols() != len(m.Columns) {
			t.Fatalf("decoded a %dx%d table under a %dx%d header", tab.NumRows(), tab.NumCols(), m.Rows, len(m.Columns))
		}
		body = AppendTable(nil, m, tab)
		m2, again, err := DecodeTable(body, "fuzz")
		if err != nil {
			t.Fatalf("re-encoded body does not decode: %v", err)
		}
		if twice := AppendTable(nil, m2, again); !bytes.Equal(twice, body) {
			t.Fatalf("a re-encoded body of %d bytes encodes again to %d different ones", len(body), len(twice))
		}
		for c := 0; c < tab.NumCols(); c++ {
			for r := 0; r < tab.NumRows(); r++ {
				if again.Raw(r, c) != tab.Raw(r, c) {
					t.Fatalf("cell (%d,%d) = %q after a round trip, was %q", r, c, again.Raw(r, c), tab.Raw(r, c))
				}
			}
		}
	})
}

// TestDecodeTableColumnsInParallel decodes bodies of a batch of
// records (table.BatchRows) and one more, whose columns decode side by
// side (GOMAXPROCS 4, so they do even on one CPU). A sound body builds
// the table New builds. A damaged one is refused in the words one
// decoder walking the columns in turn uses for the first damage it
// meets: the lowest column's, though a later column's damage sits at an
// earlier record or breaks the framing.
func TestDecodeTableColumnsInParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	n := table.BatchRows + 1
	m := Meta{Name: "wide", Gen: 1, Version: "v", Columns: []string{"A", "B", "C", "D"}, Rows: n}
	// column c spells a new entry every 100 records and repeats its
	// first in between; bad makes record bad[c] repeat an entry the
	// column has not spelled, and the last record of D is spelled out.
	body := func(bad map[int]int) []byte {
		b := appendHeader(nil, schemaSeg, m)
		for c := range m.Columns {
			cells := make([]any, n)
			for r := range cells {
				cells[r] = 0
				if r%100 == 0 {
					cells[r] = m.Columns[c] + strconv.Itoa(r)
				}
			}
			if r, ok := bad[c]; ok {
				cells[r] = 9999
			}
			if c == 3 {
				cells[n-1] = "tail-spelling"
			}
			b = appendCells(b, cells...)
		}
		return binary.AppendUvarint(b, 0) // no zone footer columns
	}
	rows := make([][]string, n)
	for r := range rows {
		rows[r] = make([]string, len(m.Columns))
		for c, name := range m.Columns {
			rows[r][c] = name + "0"
			if r%100 == 0 {
				rows[r][c] = name + strconv.Itoa(r)
			}
		}
	}
	rows[n-1][3] = "tail-spelling"
	want := table.MustNew("wide", m.Columns, rows)
	_, got, err := DecodeTable(body(nil), "wide")
	if err != nil {
		t.Fatal(err)
	}
	for c := range m.Columns {
		gd, gc := got.ColumnDictionary(c)
		wd, wc := want.ColumnDictionary(c)
		if gd.Len() != wd.Len() || gd.Entry(gd.Len()-1) != wd.Entry(wd.Len()-1) || !slices.Equal(gc, wc) {
			t.Fatalf("column %d decodes to another column than New builds", c)
		}
	}

	truncated := func(b []byte) []byte { return b[:len(b)-1-5] } // the footer and 5 bytes of D's last spelling
	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"B and C repeat unspelled entries", body(map[int]int{1: 250, 2: 50}), "segment: corrupt file: wide: column 1 repeats entry 9999 of 3"},
		{"C repeats an unspelled entry, D is cut short", truncated(body(map[int]int{2: 50})), "segment: corrupt file: wide: column 2 repeats entry 9999 of 1"},
		{"D is cut short", truncated(body(nil)), "segment: corrupt file: wide: string of 13 bytes exceeds remaining 8"},
		{"D repeats an unspelled entry and is cut short", truncated(body(map[int]int{3: 7})), "segment: corrupt file: wide: column 3 repeats entry 9999 of 1"},
	} {
		if _, _, err := DecodeTable(tc.body, "wide"); err == nil || err.Error() != tc.want || !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v, want %s", tc.name, err, tc.want)
		}
	}
}

// readTableFile reads the segment at path as ReadTable does.
func readTableFile(t *testing.T, path string) (Meta, *table.Table) {
	t.Helper()
	m, tab, err := ReadTable(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	return m, tab
}
