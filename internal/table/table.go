package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
)

// CellRef identifies one cell by record index (row) and column index.
// It is the unit of the cell-based provenance model of Section 4; its
// JSON form is how a provenance level lists its cells on the wire.
type CellRef struct {
	Row int `json:"row"`
	Col int `json:"col"`
}

// String renders the reference as "(row,col)".
func (c CellRef) String() string { return fmt.Sprintf("(%d,%d)", c.Row, c.Col) }

// Table is a single web table: an ordered relation whose records carry a
// unique Index (0,1,2,…) and an implicit Prev pointer to the record above
// (Section 3.1). Tables are immutable after construction; Append builds a
// new table rather than mutating in place, which is what lets the
// versioned store hand out consistent snapshots while mutations land.
//
// The storage is columnar and every cell is held once: a code into its
// column's dictionary of distinct spellings, and its number in a flat
// vector; its kind belongs to the dictionary entry, and its canonical
// key to the entry's key group, whose key text is held only where no
// spelling is that key. Neither a Value nor a row is stored; Value,
// Raw and RawRows put them together on the way out. The KB postings, a
// sorted numeric index and a zone map are derived per column on first
// use and may be dropped again (DropDerivedIndexes).
type Table struct {
	name    string
	columns []string
	rows    int
	// colIndex resolves a header to a column index: under its
	// case-folded, trimmed form, and under its own spelling too.
	colIndex map[string]int
	// cols is the storage, one columnData per column.
	cols []columnData
	// kb holds the lazily built per-column KB postings, read by
	// RowsFor, MostFrequentRows and DistinctColumnValues. Like numIdx
	// and zones they are droppable and rebuilt on demand.
	kb []atomicPostings
	// numIdx holds the lazily built per-column sorted numeric indexes.
	// Entries are droppable under memory pressure (DropDerivedIndexes)
	// and rebuilt on demand.
	numIdx []atomicIndex
	// zones holds the lazily built per-column zone maps (ZoneRows-block
	// min/max summaries). Like numIdx they are droppable and rebuilt on
	// demand; an appended table builds its own.
	zones []atomicZones
	// mem is the table's sealed base footprint; the derived part is
	// read off kb, numIdx and zones (DerivedBytes).
	mem memAccount
}

// newTable makes the shell of a table: its name and header, no records.
func newTable(name string, columns []string) (*Table, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("table %q: no columns", name)
	}
	t := &Table{
		name:     name,
		columns:  append([]string(nil), columns...),
		colIndex: make(map[string]int, 2*len(columns)),
	}
	for i, c := range columns {
		key := foldHeader(c)
		if _, dup := t.colIndex[key]; dup {
			return nil, fmt.Errorf("table %q: duplicate column %q", name, c)
		}
		t.colIndex[key] = i
	}
	// A header asked for as it is spelled — the usual case — is found
	// without folding it. No spelling can shadow another column: one
	// that is some column's folded form resolves to that column either
	// way.
	for i, c := range columns {
		if _, taken := t.colIndex[c]; !taken {
			t.colIndex[c] = i
		}
	}
	return t, nil
}

func foldHeader(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// New builds a table from a name, header row and raw cell text. Every row
// must have exactly len(columns) cells. Nothing of rows is kept: each
// distinct spelling of a column is copied once into its dictionary.
func New(name string, columns []string, rows [][]string) (*Table, error) {
	t, err := newTable(name, columns)
	if err != nil {
		return nil, err
	}
	for r, row := range rows {
		if len(row) != len(columns) {
			return nil, fmt.Errorf("table %q: row %d has %d cells, want %d", name, r, len(row), len(columns))
		}
	}
	b := newBuilder(t, len(rows))
	FillColumns(len(columns), len(rows), func(c int) {
		for _, row := range rows {
			b.Cell(c, row[c])
		}
	})
	return b.Table()
}

// Append returns a new table holding this table's records followed by
// extra — copy-on-write: the receiver's vectors, dictionaries and
// indexes are copied flat, and only the cells of extra are looked up
// (and, where their spelling is new to the column, parsed). The new
// table derives its own postings, indexes and zone maps on first use.
// The receiver is not modified, so snapshots pinned on it stay
// consistent.
func (t *Table) Append(extra [][]string) (*Table, error) {
	b, err := t.appendBuilder(extra)
	if err != nil {
		return nil, err
	}
	return b.Table()
}

// appendBuilder is the build half of Append: a builder seeded with the
// receiver's columns and fed the cells of extra.
func (t *Table) appendBuilder(extra [][]string) (*Builder, error) {
	for i, row := range extra {
		if len(row) != len(t.columns) {
			return nil, fmt.Errorf("table %q: appended row %d has %d cells, want %d", t.name, i, len(row), len(t.columns))
		}
	}
	b := &Builder{
		t:    &Table{name: t.name, columns: t.columns, colIndex: t.colIndex}, // immutable, shared
		cols: make([]columnBuilder, len(t.columns)),
	}
	FillColumns(len(b.cols), t.rows+len(extra), func(c int) {
		b.cols[c] = t.cols[c].extend(len(extra))
		for _, row := range extra {
			addCell(&b.cols[c], row[c])
		}
	})
	return b, nil
}

// MustNew is New, panicking on error; intended for fixtures and examples.
func MustNew(name string, columns []string, rows [][]string) *Table {
	t, err := New(name, columns, rows)
	if err != nil {
		panic(err)
	}
	return t
}

// FromCSV reads a table from CSV: the first record is the header. A
// UTF-8 byte-order mark on the first header cell (the Excel export
// convention) is stripped; a header-only document yields an empty but
// valid table. Records stream from the reader into the columns a batch
// of at most BatchRows at a time, so the document is never held whole,
// only the batch being read and the one its columns are taking in:
// while the reader fills one, FillColumns hands the other's cells to
// their columns, under GOMAXPROCS 1 one after the other. A cell reaches
// its column as a window of the batch's bytes; only a spelling new to
// the column is copied, into its dictionary.
func FromCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("table %q: empty csv", name)
	}
	if err != nil {
		return nil, fmt.Errorf("table %q: reading csv: %w", name, err)
	}
	header[0] = strings.TrimPrefix(header[0], "\ufeff")
	b, err := NewBuilder(name, header, 0)
	if err != nil {
		return nil, err
	}
	pipelined := runtime.GOMAXPROCS(0) > 1
	var (
		batches [2]csvBatch
		filling sync.WaitGroup // the columns taking in the batch before
	)
	batches[0] = newCSVBatch(len(b.cols), nil)
	for read, row := 0, 1; ; read++ {
		if read == 1 {
			batches[1] = newCSVBatch(len(b.cols), &batches[0])
		}
		batch := &batches[read%2]
		done, err := batch.read(cr, name, &row)
		filling.Wait()
		if err != nil {
			return nil, err
		}
		if done || !pipelined {
			b.fill(batch)
			if done {
				return b.Table()
			}
			continue
		}
		filling.Add(1)
		go func() {
			defer filling.Done()
			b.fill(batch)
		}()
	}
}

// csvBatch is up to BatchRows records of a CSV document, column by
// column: the cells of column c back to back in text[c], their lengths
// in lens[c]. Its buffers are reused from batch to batch.
type csvBatch struct {
	text [][]byte
	lens [][]uint32
}

// newCSVBatch makes an empty batch of width columns: with room to grow
// into, or, after a full batch like, with as much room as like has.
func newCSVBatch(width int, like *csvBatch) csvBatch {
	bt := csvBatch{text: make([][]byte, width), lens: make([][]uint32, width)}
	if like != nil {
		for c := range bt.text {
			bt.text[c] = make([]byte, 0, cap(like.text[c]))
			bt.lens[c] = make([]uint32, 0, BatchRows)
		}
	}
	return bt
}

// read fills the batch with the next records of cr, up to BatchRows of
// them, and reports whether the document ended. row numbers the
// records, from 1 after the header.
func (bt *csvBatch) read(cr *csv.Reader, name string, row *int) (done bool, err error) {
	for c := range bt.text {
		bt.text[c], bt.lens[c] = bt.text[c][:0], bt.lens[c][:0]
	}
	for ; len(bt.lens[0]) < BatchRows; *row++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			return false, fmt.Errorf("table %q: reading csv: %w", name, err)
		}
		if len(rec) != len(bt.text) {
			return false, fmt.Errorf("table %q: csv row %d has %d fields, want %d", name, *row, len(rec), len(bt.text))
		}
		for c, cell := range rec {
			if len(cell) > math.MaxUint32 {
				return false, fmt.Errorf("table %q: csv row %d: %w", name, *row, errTextOverflow)
			}
			bt.text[c] = append(grow(bt.text[c], len(cell)), cell...)
			bt.lens[c] = append(grow(bt.lens[c], 1), uint32(len(cell)))
		}
	}
	return false, nil
}

// fill hands a batch's cells to their columns, each a window of its
// column's text in the batch.
func (b *Builder) fill(bt *csvBatch) {
	FillColumns(len(b.cols), len(bt.lens[0]), func(c int) {
		cb, text := &b.cols[c], bt.text[c]
		cb.cd.codes = grow(cb.cd.codes, len(bt.lens[c]))
		for _, n := range bt.lens[c] {
			addCell(cb, text[:n])
			text = text[n:]
		}
	})
}

// Name returns the table's name.
func (t *Table) Name() string { return t.name }

// NumRows returns the number of records.
func (t *Table) NumRows() int { return t.rows }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.columns) }

// Columns returns the header names (a copy).
func (t *Table) Columns() []string { return append([]string(nil), t.columns...) }

// Column returns the header of column c.
func (t *Table) Column(c int) string { return t.columns[c] }

// ColumnIndex resolves a header name case-insensitively.
func (t *Table) ColumnIndex(name string) (int, bool) {
	if i, ok := t.colIndex[name]; ok {
		return i, true
	}
	i, ok := t.colIndex[foldHeader(name)]
	return i, ok
}

// Value returns the typed value at (row, col) — what ParseValue makes of
// the cell's text, put together from its entry's kind and its number (a
// date's day count).
func (t *Table) Value(row, col int) Value {
	cd := &t.cols[col]
	if k := cd.kindOf(cd.codes[row]); k != String {
		return Value{Kind: k, Num: cd.nums[row]}
	}
	return Value{Kind: String, Str: strings.TrimSpace(t.Raw(row, col))}
}

// Raw returns the original cell text at (row, col): a window of the
// column's dictionary.
func (t *Table) Raw(row, col int) string {
	cd := &t.cols[col]
	return cd.dict.Entry(int(cd.codes[row]))
}

// RawRows materialises every record's original cell text, row-major:
// fresh slices over windows of the dictionaries. The table keeps no
// rows; this is for tests and measurement harnesses that want them.
func (t *Table) RawRows() [][]string {
	width := len(t.columns)
	out := make([][]string, t.rows)
	cells := make([]string, t.rows*width)
	for r := range out {
		out[r] = cells[r*width : (r+1)*width : (r+1)*width]
	}
	for c := range t.cols {
		cd := &t.cols[c]
		for r, code := range cd.codes {
			out[r][c] = cd.dict.Entry(int(code))
		}
	}
	return out
}

// Records returns all record indices, in table order.
func (t *Table) Records() []int {
	out := make([]int, t.rows)
	for i := range out {
		out[i] = i
	}
	return out
}

// RowsFor returns the records whose value in column col shares v's
// canonical key (Value.Key) — the binary-relation lookup C.v of the KB
// view (e.g. Country.Greece) — in record order. The key is rendered on
// the stack and probed in the column's key index (KeyCode); the slice
// is a window of the column's postings, built on the column's first
// lookup, not a copy, and must not be modified.
func (t *Table) RowsFor(col int, v Value) []int32 {
	g, ok := t.KeyCode(col, v)
	if !ok {
		return nil
	}
	return t.postings(col).groupRows(int(g))
}

// KeyCode returns the key code in column col of v's canonical key
// (Value.Key): the code ColumnKeyCodes gives every cell that shares
// it. It reports false when no cell of the column does.
func (t *Table) KeyCode(col int, v Value) (uint32, bool) {
	var buf [64]byte
	cd := &t.cols[col]
	key := appendKey(buf[:0], v)
	return findGroup(cd, cd.dict.text, cd.exc.text, key, hashText(key))
}

// MostFrequentRows returns the records of column col's most frequent
// canonical key, ascending: the largest group of its postings, and of
// groups equally large the first in order of first appearance, whose
// first record is the smallest. It is nil for a column of no records.
// The slice is shared with the table and must not be modified.
func (t *Table) MostFrequentRows(col int) []int32 {
	kb := t.postings(col)
	best := -1
	var size uint32
	for g := range len(kb.offsets) - 1 {
		if n := kb.offsets[g+1] - kb.offsets[g]; n > size {
			best, size = g, n
		}
	}
	if best < 0 {
		return nil
	}
	return kb.groupRows(best)
}

// DistinctColumnValues returns the distinct values of a column in first-
// appearance order; used by candidate generation.
func (t *Table) DistinctColumnValues(col int) []Value {
	kb := t.postings(col)
	out := make([]Value, t.cols[col].nkeys)
	for g := range out {
		out[g] = t.Value(int(kb.rows[kb.offsets[g]]), col)
	}
	return out
}

// DedupValues keeps the first occurrence of each distinct value (by
// canonical key), preserving order — the set semantics of lambda DCS
// unaries.
func DedupValues(vals []Value) []Value {
	seen := make(map[string]bool, len(vals))
	out := vals[:0:0]
	for _, v := range vals {
		if k := v.Key(); !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out
}

// String renders the table as aligned plain text (for debugging and docs).
func (t *Table) String() string {
	var b strings.Builder
	widths := make([]int, len(t.columns))
	for c, h := range t.columns {
		widths[c] = len(h)
	}
	rows := t.RawRows()
	for _, row := range rows {
		for c, cell := range row {
			if n := len(cell); n > widths[c] {
				widths[c] = n
			}
		}
	}
	writeRow := func(cells []string) {
		for c, s := range cells {
			if c > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[c], s)
		}
		b.WriteByte('\n')
	}
	writeRow(t.columns)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
