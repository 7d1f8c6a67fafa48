package table

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// contractCells is the cell vocabulary of the storage contract tests:
// every number spelling ParseValue accepts (NaN, infinities, negative
// zero, currency and thousands separators, hex floats), all six date
// layouts on both sides of 1970, Unicode and padded strings, and the
// empty cell. Several spellings share a canonical key, so posting lists
// longer than one row and mixed-kind groups occur.
var contractCells = []string{
	"0", "-0", "+0", "7", "-7", " 42 ", "3.14", ".5", "-.5e-3", "1e3", "1E3", "1000",
	"1,234", "$1,234", "$150,000", "1234", "1e15", "1e16", "123456789012345678", "0x1p-2",
	"NaN", "nan", "nAn", "inf", "Inf", "-Inf", "+inf", "infinity", "-INFINITY",
	"2013-06-08", "1896-04-06", "0001-01-01", "9999-12-31", "1969-12-31", "1970-01-01",
	"June 8, 2013", "April 6, 1896", "June 8 2013", "Jun 8, 2013", "Apr 6, 1896",
	"8 June 2013", "6 April 1896", "06/08/2013", "04/06/1896", " 2013-06-08\t",
	"Greece", "greece", "GREECE", "  Greece  ", "\tAthens\n", "Rio de Janeiro",
	"4th Round", "Did not qualify", "n/a", "-", ".", "$", ",", "1,2,3x", "12 monkeys",
	"Ünïcode", "ünïcode", "Straße", "ſ", "S", "İstanbul", "東京", " padded ",
	"", " ", "\t",
}

// columnKeys is the canonical key (Value.Key) of every cell in column
// c, in record order, read off the storage: a group's key is the
// spelling of an entry that is its own key, or its exception. It
// panics when a group has no key or two groups share one, which would
// leave a lookup to find the wrong group. Executors read
// ColumnKeyCodes instead.
func columnKeys(t *Table, c int) []string {
	cd := &t.cols[c]
	keys := make([]string, cd.nkeys)
	held := make([]bool, cd.nkeys)
	owner := make(map[string]uint32, cd.nkeys)
	hold := func(g uint32, key string) {
		if o, ok := owner[key]; ok && o != g {
			panic("key " + strconv.Quote(key) + " held by two groups")
		}
		owner[key], keys[g], held[g] = g, key, true
	}
	for e := range cd.dict.Len() {
		if cd.kinds[e]&otherKey == 0 {
			g := uint32(e)
			if cd.entryGroup != nil {
				g = cd.entryGroup[e]
			}
			hold(g, cd.dict.Entry(e))
		}
	}
	for x := range cd.exc.Len() {
		hold(cd.excGroup[x], cd.exc.Entry(x))
	}
	for g, ok := range held {
		if !ok {
			panic("group " + strconv.Itoa(g) + " has no key")
		}
	}
	out := make([]string, len(cd.groups))
	for r, g := range cd.groups {
		out[r] = keys[g]
	}
	return out
}

// contractRows draws n rows of width cols from contractCells, with one
// sequential column so most tables also have an all-numeric column
// without NaN.
func contractRows(rng *rand.Rand, n, cols int) [][]string {
	rows := make([][]string, n)
	for r := range rows {
		row := make([]string, cols)
		for c := range row {
			row[c] = contractCells[rng.Intn(len(contractCells))]
		}
		row[cols-1] = strconv.Itoa(rng.Intn(50))
		rows[r] = row
	}
	return rows
}

func contractColumns(cols int) []string {
	out := make([]string, cols)
	for c := range out {
		out[c] = "C" + strconv.Itoa(c)
	}
	return out
}

// sameValue is field-for-field identity: Num bitwise (NaN payloads and
// the sign of zero count).
func sameValue(a, b Value) bool {
	return a.Kind == b.Kind && a.Str == b.Str &&
		math.Float64bits(a.Num) == math.Float64bits(b.Num)
}

func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// TestValueMatchesParse pins what a stored cell reads back as: exactly
// what ParseValue makes of its raw text, whatever the table keeps
// between New and Value.
func TestValueMatchesParse(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 20; trial++ {
		cols := 1 + rng.Intn(5)
		rows := contractRows(rng, rng.Intn(120), cols)
		if trial == 0 {
			// Every vocabulary entry at least once.
			rows = nil
			for _, cell := range contractCells {
				rows = append(rows, []string{cell, "1"})
			}
			cols = 2
		}
		tab := MustNew("t", contractColumns(cols), rows)
		numeric := make([]bool, cols)
		for r := range rows {
			for c := 0; c < cols; c++ {
				raw := tab.Raw(r, c)
				if raw != rows[r][c] {
					t.Fatalf("Raw(%d,%d) = %q, want %q", r, c, raw, rows[r][c])
				}
				got, want := tab.Value(r, c), ParseValue(raw)
				if !sameValue(got, want) {
					t.Fatalf("Value(%d,%d) of %q = %#v, want %#v", r, c, raw, got, want)
				}
				if got.Key() != want.Key() || got.Key() != columnKeys(tab, c)[r] {
					t.Fatalf("keys of %q: Value %q, parse %q, column %q", raw, got.Key(), want.Key(), columnKeys(tab, c)[r])
				}
				if got.HashKey(FNVOffset) != want.HashKey(FNVOffset) {
					t.Fatalf("HashKey of %q diverges", raw)
				}
				gf, gok := got.Float()
				wf, wok := want.Float()
				if gok != wok || math.Float64bits(gf) != math.Float64bits(wf) {
					t.Fatalf("Float of %q = %v,%v, want %v,%v", raw, gf, gok, wf, wok)
				}
				if k := tab.CellKind(r, c); k != want.Kind {
					t.Fatalf("CellKind of %q = %v, want %v", raw, k, want.Kind)
				}
				// A number where the cell has one, NaN where it has none,
				// and no vector where no cell of the column has one.
				nums := tab.ColumnNums(c)
				switch {
				case wok && (nums == nil || math.Float64bits(nums[r]) != math.Float64bits(wf)):
					t.Fatalf("ColumnNums of %q = %v, want %v", raw, nums, wf)
				case !wok && nums != nil && !math.IsNaN(nums[r]):
					t.Fatalf("ColumnNums of %q = %v, want NaN", raw, nums[r])
				}
				numeric[c] = numeric[c] || wok
			}
		}
		for c, any := range numeric {
			if (tab.ColumnNums(c) != nil) != any {
				t.Fatalf("column %d: ColumnNums nil = %v with a numeric cell %v", c, tab.ColumnNums(c) == nil, any)
			}
		}
	}
}

// assertSameTable compares every accessor of two tables that should
// hold the same relation.
func assertSameTable(t *testing.T, label string, got, want *Table) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() || got.Name() != want.Name() {
		t.Fatalf("%s: shape %q %dx%d, want %q %dx%d", label, got.Name(), got.NumRows(), got.NumCols(), want.Name(), want.NumRows(), want.NumCols())
	}
	if !slices.Equal(got.Columns(), want.Columns()) {
		t.Fatalf("%s: columns %v, want %v", label, got.Columns(), want.Columns())
	}
	if !slices.EqualFunc(got.RawRows(), want.RawRows(), func(a, b []string) bool { return slices.Equal(a, b) }) {
		t.Fatalf("%s: RawRows diverge", label)
	}
	missing := StringValue("no such cell anywhere")
	for c := 0; c < want.NumCols(); c++ {
		for r := 0; r < want.NumRows(); r++ {
			if got.Raw(r, c) != want.Raw(r, c) {
				t.Fatalf("%s: Raw(%d,%d) = %q, want %q", label, r, c, got.Raw(r, c), want.Raw(r, c))
			}
			v := want.Value(r, c)
			if !sameValue(got.Value(r, c), v) {
				t.Fatalf("%s: Value(%d,%d) = %#v, want %#v", label, r, c, got.Value(r, c), v)
			}
			if got.CellKind(r, c) != want.CellKind(r, c) {
				t.Fatalf("%s: CellKind(%d,%d) = %v, want %v", label, r, c, got.CellKind(r, c), want.CellKind(r, c))
			}
			if g, w := got.RowsFor(c, v), want.RowsFor(c, v); !slices.Equal(g, w) || !slices.Contains(g, int32(r)) {
				t.Fatalf("%s: RowsFor(%d, %v) = %v, want %v containing %d", label, c, v, g, w, r)
			}
		}
		if !slices.Equal(columnKeys(got, c), columnKeys(want, c)) {
			t.Fatalf("%s: column %d keys diverge", label, c)
		}
		if !sameFloats(got.ColumnNums(c), want.ColumnNums(c)) {
			t.Fatalf("%s: ColumnNums(%d) diverge", label, c)
		}
		if got.ColumnAllNumeric(c) != want.ColumnAllNumeric(c) || got.ColumnIndexable(c) != want.ColumnIndexable(c) {
			t.Fatalf("%s: column %d flags: allNumeric %v/%v indexable %v/%v", label, c,
				got.ColumnAllNumeric(c), want.ColumnAllNumeric(c), got.ColumnIndexable(c), want.ColumnIndexable(c))
		}
		if g := got.RowsFor(c, missing); len(g) != 0 {
			t.Fatalf("%s: RowsFor of a missing value = %v", label, g)
		}
		if g, w := got.DistinctColumnValues(c), want.DistinctColumnValues(c); !slices.EqualFunc(g, w, sameValue) {
			t.Fatalf("%s: DistinctColumnValues(%d) = %v, want %v", label, c, g, w)
		}
		if g, w := got.NumericSortedRows(c), want.NumericSortedRows(c); !slices.Equal(g, w) {
			t.Fatalf("%s: NumericSortedRows(%d) = %v, want %v", label, c, g, w)
		}
		if gz, wz := got.ColumnZones(c), want.ColumnZones(c); !sameZones(gz, wz) {
			t.Fatalf("%s: ColumnZones(%d) diverges\ngot:  %+v\nwant: %+v", label, c, gz, wz)
		}
	}
}

// TestAppendMatchesNew is the copy-on-write property of the cell
// storage, the sibling of TestZoneBuildMatchesAppend: a table grown by
// Append is indistinguishable from one built from all the rows at once,
// the parent is untouched, and two successors of one parent never see
// each other's rows.
func TestAppendMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 12; trial++ {
		cols := 1 + rng.Intn(4)
		columns := contractColumns(cols)
		a := contractRows(rng, rng.Intn(80), cols)
		b1 := contractRows(rng, 1+rng.Intn(40), cols)
		b2 := contractRows(rng, 1+rng.Intn(40), cols)
		concat := func(x, y [][]string) [][]string { return append(slices.Clone(x), y...) }

		parent := MustNew("t", columns, a)
		first, err := parent.Append(b1)
		if err != nil {
			t.Fatal(err)
		}
		second, err := parent.Append(b2)
		if err != nil {
			t.Fatal(err)
		}
		chained, err := first.Append(b2)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTable(t, "first successor", first, MustNew("t", columns, concat(a, b1)))
		assertSameTable(t, "second successor", second, MustNew("t", columns, concat(a, b2)))
		assertSameTable(t, "chained", chained, MustNew("t", columns, concat(concat(a, b1), b2)))
		assertSameTable(t, "parent after appends", parent, MustNew("t", columns, a))
	}
}

// parseValueReference is ParseValue as first written: every cell goes
// through strconv.ParseFloat and then through each date layout in turn.
// It stays as the oracle FuzzParseValue compares ParseValue against.
func parseValueReference(raw string) Value {
	s := strings.TrimSpace(raw)
	if s == "" {
		return StringValue("")
	}
	cleaned := strings.ReplaceAll(strings.TrimPrefix(s, "$"), ",", "")
	if cleaned != "" {
		if n, err := strconv.ParseFloat(cleaned, 64); err == nil {
			return NumberValue(n)
		}
	}
	for _, layout := range dateLayouts {
		if t, err := time.Parse(layout, s); err == nil {
			return DateValue(t)
		}
	}
	return StringValue(s)
}

// FuzzParseValue is the differential fuzzer of cell typing (CSV / JSON
// ingest): whatever shortcuts ParseValue takes, it must type every
// input exactly as the reference does, and whatever shortcuts the
// column build takes, a cell must read back as ParseValue types it.
func FuzzParseValue(f *testing.F) {
	for _, cell := range contractCells {
		f.Add(cell)
	}
	for _, cell := range []string{"$", "$,", "$-1", "-$1", "+.5", "i", "N", "1_000", "0x_1p4", "Infinit", "nane",
		"May 5, 2005", "5 May 2005", "Sept 5, 2005", "2005-5-5", "13/01/2005", "February 30, 2005", "١٢٣", "２００４-０１-０２"} {
		f.Add(cell)
	}
	// The edges of a plain integer spelling: leading zeros, signs,
	// padding, separators and the most digits a float64 renders back
	// the same way.
	for _, cell := range []string{"0", "00", "007", "-0", "-7", "+7", " 7", "7 ", "1,000", "$7",
		"999999999999999", "-999999999999999", "1000000000000000", "-1000000000000000", "NaN", "-", "--7", "7-"} {
		f.Add(cell)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		if got, want := ParseValue(raw), parseValueReference(raw); !sameValue(got, want) {
			t.Fatalf("ParseValue(%q) = %#v, reference %#v", raw, got, want)
		}
		checkIngest(t, raw)
	})
}

// checkIngest builds a one-cell column from raw, from a string and
// from bytes, and holds what it stores to ParseValue: the cell's value
// (kind, number, date), its numeric vector entry and its canonical
// key; and CellInt to plainInt. RowsFor must find the cell for ParseValue's value, for the value
// and the text its key reads back as, and for raw upper-cased in ASCII,
// each exactly when that value's Value.Key is the cell's.
func checkIngest(t *testing.T, raw string) {
	t.Helper()
	want := ParseValue(raw)
	wf, wok := want.Float()
	byString, err := New("t", []string{"C"}, [][]string{{raw}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder("t", []string{"C"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.CellBytes(0, []byte(raw))
	byBytes, err := b.Table()
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range []*Table{byString, byBytes} {
		if got := tab.Value(0, 0); !sameValue(got, want) {
			t.Fatalf("cell %q reads back %#v, ParseValue %#v", raw, got, want)
		}
		if k := tab.CellKind(0, 0); k != want.Kind {
			t.Fatalf("cell %q: CellKind %v, ParseValue %v", raw, k, want.Kind)
		}
		switch nums := tab.ColumnNums(0); {
		case wok && (nums == nil || math.Float64bits(nums[0]) != math.Float64bits(wf)):
			t.Fatalf("cell %q: ColumnNums %v, want %v", raw, nums, wf)
		case !wok && nums != nil:
			t.Fatalf("cell %q: ColumnNums %v, want nil", raw, nums)
		}
		if got := columnKeys(tab, 0)[0]; got != want.Key() {
			t.Fatalf("cell %q: key %q, Value.Key %q", raw, got, want.Key())
		}
		// A segment stores the cell as the integer CellInt reads, and
		// renders it back with strconv.
		_, plain := plainInt(raw)
		if n, ok := tab.CellInt(0, 0); ok != plain || ok && strconv.FormatInt(n, 10) != raw {
			t.Fatalf("cell %q: CellInt = %d, %v; plainInt takes it: %v", raw, n, ok, plain)
		}
		upper := []byte(raw)
		for i, c := range upper {
			if c >= 'a' && c <= 'z' {
				upper[i] = c - 'a' + 'A'
			}
		}
		for _, v := range []Value{want, ParseValue(want.Key()), StringValue(want.Key()), ParseValue(string(upper))} {
			var hit []int32
			if v.Key() == want.Key() {
				hit = []int32{0}
			}
			if rows := tab.RowsFor(0, v); !slices.Equal(rows, hit) {
				t.Fatalf("cell %q: RowsFor(%#v) = %v, keys %q and %q", raw, v, rows, v.Key(), want.Key())
			}
		}
	}
}

// indexCells are the numeric spellings the index differential draws
// from: ties, both zeros, both infinities, subnormals, the extremes of
// a float64, decimals, dates, and text the index leaves out.
var indexCells = []string{
	"0", "-0", "+0", "0.0", "1", "-1", "7", "7", "-7", "3.14", "-3.14", "1e3", "1000", "-1e300", "1e300",
	"inf", "-inf", "Inf", "+Inf", "5e-324", "-5e-324", "4.9e-324", "2.2250738585072e-308", "-2.2250738585072e-308",
	"1.7976931348623157e308", "-1.7976931348623157e308", "999999999999999", "-999999999999999", "123456789012345678",
	"2013-06-08", "1896-04-06", "1969-12-31", "1970-01-01", "June 8, 2013", "0001-01-01",
	"Greece", "n/a", "4th Round", "",
}

// indexReference is the order NumericSortedRows promises: the records
// with a numeric reading (numbers and dates), ascending by it, ties by
// record, and a cell spelling NaN after every number.
func indexReference(tab *Table, c int) []int32 {
	nums := tab.ColumnNums(c)
	var rows []int32
	for r := range nums {
		if tab.CellKind(r, c) != String {
			rows = append(rows, int32(r))
		}
	}
	nan := func(f float64) int {
		if math.IsNaN(f) {
			return 1
		}
		return 0
	}
	slices.SortStableFunc(rows, func(a, b int32) int {
		return cmp.Or(cmp.Compare(nan(nums[a]), nan(nums[b])), cmp.Compare(nums[a], nums[b]))
	})
	return rows
}

// TestNumericSortedRowsMatchesComparisonSort is the differential test
// of the sorted numeric index against the comparison order, value then
// record, over generated columns: random draws with ties, one value
// repeated, an ascending and a descending sequence, wide integers and
// mixed kinds, a column that spells NaN among them.
func TestNumericSortedRowsMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	gens := []struct {
		name string
		gen  func(i, n int) string
	}{
		{"drawn", func(int, int) string { return indexCells[rng.Intn(len(indexCells))] }},
		{"ties", func(int, int) string { return strconv.Itoa(rng.Intn(4) - 2) }},
		{"constant", func(int, int) string { return "42" }},
		{"ascending", func(i, _ int) string { return strconv.Itoa(i) }},
		{"descending", func(i, n int) string { return strconv.Itoa(n - i) }},
		{"wide", func(int, int) string { return strconv.FormatInt(rng.Int63()-rng.Int63(), 10) }},
		{"fractions", func(int, int) string { return strconv.FormatFloat(rng.NormFloat64()*1e-3, 'g', -1, 64) }},
		{"nan", func(int, int) string { return []string{"NaN", "1", "-1", "inf", "x"}[rng.Intn(5)] }},
	}
	for _, g := range gens {
		for _, n := range []int{0, 1, 2, 3, 17, 256, 1000, 5000} {
			rows := make([][]string, n)
			for i := range rows {
				rows[i] = []string{g.gen(i, n)}
			}
			tab := MustNew("t", []string{"C"}, rows)
			if tab.ColumnNums(0) == nil {
				continue
			}
			if got, want := tab.NumericSortedRows(0), indexReference(tab, 0); !slices.Equal(got, want) {
				t.Fatalf("%s, %d records: NumericSortedRows = %v, want %v", g.name, n, got, want)
			}
		}
	}
}
