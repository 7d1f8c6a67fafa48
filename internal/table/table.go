package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"
)

// CellRef identifies one cell by record index (row) and column index.
// It is the unit of the cell-based provenance model of Section 4.
type CellRef struct {
	Row int
	Col int
}

// String renders the reference as "(row,col)".
func (c CellRef) String() string { return fmt.Sprintf("(%d,%d)", c.Row, c.Col) }

// Less orders cell references row-major, for deterministic output.
func (c CellRef) Less(o CellRef) bool {
	if c.Row != o.Row {
		return c.Row < o.Row
	}
	return c.Col < o.Col
}

// Table is a single web table: an ordered relation whose records carry a
// unique Index (0,1,2,…) and an implicit Prev pointer to the record above
// (Section 3.1). Tables are immutable after construction; Append builds a
// new table rather than mutating in place, which is what lets the
// versioned store hand out consistent snapshots while mutations land.
//
// Every cell is held once: its original text in raw, its typed reading
// (kind, number, canonical key) in the column vectors of cols. A Value
// is not stored; Value and CellValue put one together from those two on
// the way out.
type Table struct {
	name    string
	columns []string
	// raw is the original text of every cell, row-major.
	raw [][]string
	// colIndex resolves a (case-insensitive) header to a column index.
	colIndex map[string]int
	// cols is the typed, columnar half of the storage, built eagerly:
	// per column the kind, numeric reading and canonical key of every
	// cell, and the KB index over those keys.
	cols []columnData
	// numIdx holds the lazily built per-column sorted numeric indexes.
	// Entries are droppable under memory pressure (DropDerivedIndexes)
	// and rebuilt on demand.
	numIdx []atomicIndex
	// zones holds the lazily built per-column zone maps (ZoneRows-block
	// min/max summaries). Like numIdx they are droppable and rebuilt on
	// demand; under Append they are maintained incrementally.
	zones []atomicZones
	// mem is the table's byte accounting: base footprint, currently
	// built derived-index bytes, and the store's change hook.
	mem memAccount
}

// New builds a table from a name, header row and raw cell text. Every row
// must have exactly len(columns) cells. The rows are copied; the cell
// strings themselves are kept, and a cell that repeats the text of the
// first cell with its key in the column shares that cell's string.
func New(name string, columns []string, rows [][]string) (*Table, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("table %q: no columns", name)
	}
	t := &Table{
		name:     name,
		columns:  append([]string(nil), columns...),
		colIndex: make(map[string]int, len(columns)),
	}
	for i, c := range columns {
		key := strings.ToLower(strings.TrimSpace(c))
		if _, dup := t.colIndex[key]; dup {
			return nil, fmt.Errorf("table %q: duplicate column %q", name, c)
		}
		t.colIndex[key] = i
	}
	for r, row := range rows {
		if len(row) != len(columns) {
			return nil, fmt.Errorf("table %q: row %d has %d cells, want %d", name, r, len(row), len(columns))
		}
	}
	t.raw = appendRows(nil, rows, len(columns))
	t.buildColumns(nil)
	return t, nil
}

// Append returns a new table holding this table's records followed by
// extra — copy-on-write: the receiver's row slices and cell strings are
// shared, its typed vectors are copied rather than parsed again, only
// the cells of extra are parsed, and the KB index is regrouped over the
// combined keys. The receiver is not modified, so snapshots pinned on it
// stay consistent.
func (t *Table) Append(extra [][]string) (*Table, error) {
	for i, row := range extra {
		if len(row) != len(t.columns) {
			return nil, fmt.Errorf("table %q: appended row %d has %d cells, want %d", t.name, i, len(row), len(t.columns))
		}
	}
	nt := &Table{
		name:     t.name,
		columns:  t.columns, // immutable, shared
		colIndex: t.colIndex,
		raw:      appendRows(t.raw, extra, len(t.columns)),
	}
	nt.buildColumns(t)
	nt.inheritZones(t)
	return nt, nil
}

// appendRows returns a fresh outer slice holding the row slices of old
// followed by copies of extra, the copies cut from one block of cells.
func appendRows(old, extra [][]string, width int) [][]string {
	out := make([][]string, len(old), len(old)+len(extra))
	copy(out, old)
	cells := make([]string, len(extra)*width)
	for _, row := range extra {
		out = append(out, cells[:width:width])
		copy(cells, row)
		cells = cells[width:]
	}
	return out
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
// valid table.
func FromCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("table %q: reading csv: %w", name, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("table %q: empty csv", name)
	}
	header := recs[0]
	header[0] = strings.TrimPrefix(header[0], "\ufeff")
	body := recs[1:]
	for i, row := range body {
		if len(row) != len(header) {
			return nil, fmt.Errorf("table %q: csv row %d has %d fields, want %d", name, i+1, len(row), len(header))
		}
	}
	return New(name, header, body)
}

// Name returns the table's name.
func (t *Table) Name() string { return t.name }

// NumRows returns the number of records.
func (t *Table) NumRows() int { return len(t.raw) }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.columns) }

// Columns returns the header names (a copy).
func (t *Table) Columns() []string { return append([]string(nil), t.columns...) }

// Column returns the header of column c.
func (t *Table) Column(c int) string { return t.columns[c] }

// ColumnIndex resolves a header name case-insensitively.
func (t *Table) ColumnIndex(name string) (int, bool) {
	i, ok := t.colIndex[strings.ToLower(strings.TrimSpace(name))]
	return i, ok
}

// Value returns the typed value at (row, col) — what ParseValue makes of
// the cell's text, put together from the stored kind and number. The
// six date layouts are date-only, so a date is a whole number of days
// and converts back exactly.
func (t *Table) Value(row, col int) Value {
	cd := &t.cols[col]
	switch Kind(cd.kinds[row]) {
	case Number:
		return Value{Kind: Number, Num: cd.nums[row]}
	case Date:
		return Value{Kind: Date, Time: time.Unix(int64(cd.nums[row]*86400), 0).UTC()}
	default:
		return Value{Kind: String, Str: strings.TrimSpace(t.raw[row][col])}
	}
}

// Raw returns the original cell text at (row, col).
func (t *Table) Raw(row, col int) string { return t.raw[row][col] }

// RawRows returns every record's original cell text, row-major. The
// slices are shared with the table and must not be modified; the
// durability layer reads them in place when framing WAL records and
// segment files.
func (t *Table) RawRows() [][]string { return t.raw }

// CellValue returns the typed value a CellRef points at.
func (t *Table) CellValue(c CellRef) Value { return t.Value(c.Row, c.Col) }

// Records returns all record indices, in table order.
func (t *Table) Records() []int {
	out := make([]int, len(t.raw))
	for i := range out {
		out[i] = i
	}
	return out
}

// RecordsWhere returns, in table order, the record indices where column
// col holds a value equal to v — the binary-relation lookup C.v of the KB
// view (e.g. Country.Greece).
func (t *Table) RecordsWhere(col int, v Value) []int {
	return append([]int(nil), t.RowsForKey(col, v.Key())...)
}

// RowsForKey returns the KB posting list of a canonical key (Value.Key)
// in column col, in record order. Unlike RecordsWhere it does not copy:
// the slice is a window of the column's postings and must not be
// modified.
func (t *Table) RowsForKey(col int, key string) []int {
	kb := &t.cols[col].kb
	g, ok := kb.group[key]
	if !ok {
		return nil
	}
	return kb.groupRows(int(g))
}

// ColumnCells returns the cell references of every cell in column col,
// in record order. This is the PC provenance primitive.
func (t *Table) ColumnCells(col int) []CellRef {
	out := make([]CellRef, len(t.raw))
	for r := range out {
		out[r] = CellRef{Row: r, Col: col}
	}
	return out
}

// DistinctColumnValues returns the distinct values of a column in first-
// appearance order; used by candidate generation and the most-frequent
// operator.
func (t *Table) DistinctColumnValues(col int) []Value {
	kb := &t.cols[col].kb
	out := make([]Value, kb.numGroups())
	for g := range out {
		out[g] = t.Value(kb.groupRows(g)[0], col)
	}
	return out
}

// SortCells orders a cell slice row-major in place and returns it.
func SortCells(cells []CellRef) []CellRef {
	slices.SortFunc(cells, compareCells)
	return cells
}

func compareCells(a, b CellRef) int {
	if a.Row != b.Row {
		return a.Row - b.Row
	}
	return a.Col - b.Col
}

// DedupCells returns the distinct cells of the slice, sorted
// row-major — the canonical witness-cell form shared by the plan
// executor and the legacy interpreters. The input is sorted and
// compacted in place (callers pass freshly built concatenations), so
// the whole operation is map- and allocation-free.
func DedupCells(cells []CellRef) []CellRef {
	if len(cells) == 0 {
		return cells
	}
	return slices.Compact(SortCells(cells))
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
	for _, row := range t.raw {
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
	for _, row := range t.raw {
		writeRow(row)
	}
	return b.String()
}
