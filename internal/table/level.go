package table

import (
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
// the order of a CellSet and of the wire, and MarshalJSON writes them
// as the {"row", "col"} list. The zero Level is empty. A Level is
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

// LevelOf holds the cells of s, a set over a table of rows records, by
// column: a column whose cells cover every row is held whole. The
// level takes one allocation, sized exactly; s is not retained.
func LevelOf(s CellSet, rows int) Level {
	l := Level{rows: int32(rows)}
	if len(s) == 0 {
		return l
	}
	// A level spans few columns: count their cells on the stack.
	type span struct{ col, n, at int }
	var buf [8]span
	spans := buf[:0]
	for _, c := range s {
		k := slices.IndexFunc(spans, func(sp span) bool { return sp.col == c.Col })
		if k < 0 {
			k = len(spans)
			spans = append(spans, span{col: c.Col})
		}
		spans[k].n++
	}
	slices.SortFunc(spans, func(a, b span) int { return a.col - b.col })
	size := 0
	for k := range spans {
		size += 2
		if spans[k].n != rows {
			size += spans[k].n
		}
	}
	l.data = make([]int32, size)
	at := 0
	for k := range spans {
		sp := &spans[k]
		l.data[at] = int32(sp.col)
		if sp.n == rows {
			l.data[at+1] = whole
			sp.at = -1
			at += 2
			continue
		}
		l.data[at+1] = int32(sp.n)
		sp.at = at + 2
		at += 2 + sp.n
	}
	for _, c := range s {
		k := slices.IndexFunc(spans, func(sp span) bool { return sp.col == c.Col })
		if sp := &spans[k]; sp.at >= 0 {
			l.data[sp.at] = int32(c.Row)
			sp.at++
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

// All walks the level's cells row-major, each once: the order of a
// CellSet. It merges the columns' rows, so a step costs the number of
// columns.
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
// same cells as a CellSet, and [] when the level is empty.
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
	*l = LevelOf(DedupCells(cells), 0)
	return nil
}
