package table

import (
	"cmp"
	"encoding/json"
	"iter"
	"math"
	"slices"
	"strconv"
)

// Level is one level of a query's provenance (Definition 4.1) as a
// cached explanation holds it: by column, each column that holds a
// cell of the level with either every row of the table or an ascending
// set of rows in the executor's []int32 form. PC, every cell of the
// columns a query mentions, is a few columns held whole, whatever the
// table's size; PO and PE are the rows their cells lie on.
//
// A level lists its cells only when asked: All walks them row-major,
// the order of the wire, and MarshalJSON writes them as the
// {"row", "col"} list. The zero Level is empty. A Level is
// immutable once built and may be shared.
type Level struct {
	// rows is the table's row count: the rows of a whole column.
	rows int32
	// data holds the columns in ascending order, each as its index, its
	// row count (-1 for a whole column) and then its rows, ascending.
	data []int32
}

// whole is the row count data records for a column that holds every
// row.
const whole = -1

// column reads the column that starts at data[i]: its index, its rows
// (nil when it holds every row) and where the next column starts.
func (l Level) column(i int) (col int, rows []int32, next int) {
	col, n := int(l.data[i]), int(l.data[i+1])
	if n == whole {
		return col, nil, i + 2
	}
	return col, l.data[i+2 : i+2+n], i + 2 + n
}

// Span is one column of a witness: the column's index and the rows its
// cells lie on, ascending and distinct. The plan executor reports the
// cells an operator reads as a few spans, ascending by column.
type Span struct {
	Col  int
	Rows []int32
}

// NewLevel holds the cells of spans, which are ascending by column and
// name each column once, over a table of rows records: a span that
// covers every row is held whole and an empty span is dropped. The
// level takes one allocation, sized exactly; spans is not retained.
func NewLevel(rows int, spans []Span) Level {
	l := Level{rows: int32(rows)}
	size := 0
	for _, sp := range spans {
		switch len(sp.Rows) {
		case 0:
		case rows:
			size += 2
		default:
			size += 2 + len(sp.Rows)
		}
	}
	if size == 0 {
		return l
	}
	l.data = make([]int32, 0, size)
	for _, sp := range spans {
		switch len(sp.Rows) {
		case 0:
		case rows:
			l.data = append(l.data, int32(sp.Col), whole)
		default:
			l.data = append(l.data, int32(sp.Col), int32(len(sp.Rows)))
			l.data = append(l.data, sp.Rows...)
		}
	}
	return l
}

// WithColumns returns l together with every row of cols, which are
// ascending and distinct: PC of Definition 4.1 from PE and the columns
// a query mentions. A column of l that cols does not name keeps its
// rows, so the result holds l exactly.
func (l Level) WithColumns(cols []int) Level {
	size := len(l.data) + 2*len(cols)
	for i := 0; i < len(l.data); {
		col, _, next := l.column(i)
		if _, named := slices.BinarySearch(cols, col); named {
			size -= next - i
		}
		i = next
	}
	out := Level{rows: l.rows, data: make([]int32, 0, size)}
	i := 0
	for _, col := range cols {
		for i < len(l.data) {
			c, _, next := l.column(i)
			if c > col {
				break
			}
			if c < col {
				out.data = append(out.data, l.data[i:next]...)
			}
			i = next
		}
		out.data = append(out.data, int32(col), whole)
	}
	out.data = append(out.data, l.data[i:]...)
	return out
}

// Contains reports whether the cell is in the level: a scan of its
// few columns, then a binary search of one column's rows.
func (l Level) Contains(c CellRef) bool {
	if c.Row < 0 || c.Row > math.MaxInt32 {
		return false
	}
	for i := 0; i < len(l.data); {
		col, rows, next := l.column(i)
		if col == c.Col {
			if rows == nil {
				return c.Row < int(l.rows)
			}
			_, ok := slices.BinarySearch(rows, int32(c.Row))
			return ok
		}
		i = next
	}
	return false
}

// Cursor answers whether a level holds the cells of one column, asked
// down the column: a step of a merge over the column's rows, not a
// search of them. The zero Cursor holds nothing.
type Cursor struct {
	// rows are the column's rows not yet passed, nil when it is whole
	// or absent.
	rows []int32
	// whole is the table's row count for a whole column, else 0.
	whole int32
}

// Cursors sets cur[c] to a cursor at the top of column c, for each
// column c below len(cur): one pass over the level's columns.
func (l Level) Cursors(cur []Cursor) {
	clear(cur)
	for i := 0; i < len(l.data); {
		c, rows, next := l.column(i)
		if c >= len(cur) {
			return
		}
		if rows == nil {
			cur[c] = Cursor{whole: l.rows}
		} else {
			cur[c] = Cursor{rows: rows}
		}
		i = next
	}
}

// Holds reports whether the level holds the cell of the cursor's
// column on row, which must not be below the row asked before.
func (c *Cursor) Holds(row int) bool {
	if c.rows == nil {
		return row >= 0 && row < int(c.whole)
	}
	for len(c.rows) > 0 && int(c.rows[0]) < row {
		c.rows = c.rows[1:]
	}
	return len(c.rows) > 0 && int(c.rows[0]) == row
}

// Len returns the number of cells in the level.
func (l Level) Len() int {
	n := 0
	for i := 0; i < len(l.data); {
		_, rows, next := l.column(i)
		if rows == nil {
			n += int(l.rows)
		} else {
			n += len(rows)
		}
		i = next
	}
	return n
}

// All walks the level's cells row-major, each once. It merges the
// columns' rows, so a step costs the number of columns.
func (l Level) All() iter.Seq[CellRef] {
	return func(yield func(CellRef) bool) {
		// cursor is one column's place in the walk: rows[at], or row at
		// itself when rows is nil and the column is whole.
		type cursor struct {
			col  int
			rows []int32
			at   int
		}
		row := func(c *cursor) (int, bool) {
			if c.rows == nil {
				return c.at, c.at < int(l.rows)
			}
			if c.at < len(c.rows) {
				return int(c.rows[c.at]), true
			}
			return 0, false
		}
		var buf [8]cursor
		cur := buf[:0]
		for i := 0; i < len(l.data); {
			col, rows, next := l.column(i)
			cur = append(cur, cursor{col: col, rows: rows})
			i = next
		}
		for {
			r := -1
			for k := range cur {
				if at, ok := row(&cur[k]); ok && (r < 0 || at < r) {
					r = at
				}
			}
			if r < 0 {
				return
			}
			for k := range cur {
				if at, ok := row(&cur[k]); ok && at == r {
					if !yield(CellRef{Row: r, Col: cur[k].col}) {
						return
					}
					cur[k].at++
				}
			}
		}
	}
}

// MarshalJSON writes the level as the list of its cells, row-major,
// each a {"row", "col"} object: the bytes encoding/json makes of the
// same cells as a []CellRef, and [] when the level is empty.
func (l Level) MarshalJSON() ([]byte, error) {
	b := []byte{'['}
	for c := range l.All() {
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"row":`...), int64(c.Row), 10)
		b = strconv.AppendInt(append(b, `,"col":`...), int64(c.Col), 10)
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// UnmarshalJSON reads a list of cells, in any order, back into a
// level. The list does not say how many rows the table has, so every
// column keeps its rows.
func (l *Level) UnmarshalJSON(b []byte) error {
	var cells []CellRef
	if err := json.Unmarshal(b, &cells); err != nil {
		return err
	}
	slices.SortFunc(cells, func(a, b CellRef) int { return cmp.Or(a.Col-b.Col, a.Row-b.Row) })
	cells = slices.Compact(cells)
	var spans []Span
	for i, c := range cells {
		if i == 0 || c.Col != cells[i-1].Col {
			spans = append(spans, Span{Col: c.Col})
		}
		sp := &spans[len(spans)-1]
		sp.Rows = append(sp.Rows, int32(c.Row))
	}
	*l = NewLevel(0, spans)
	return nil
}
