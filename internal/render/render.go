// Package render draws highlighted tables. It turns the provenance-based
// highlights of Section 5.2 (colored = PO, framed = PE, lit = PC) into
// three outputs: plain text with markers (for tests, logs and docs), ANSI
// escapes (for terminals) and HTML (the paper's web interface rendered
// tables like Figures 1 and 4-9).
package render

import (
	"fmt"
	"html"
	"strconv"
	"strings"

	"nlexplain/internal/jsonw"
	"nlexplain/internal/provenance"
	"nlexplain/internal/table"
)

// Text markers, one per provenance level:
//
//	**v**  colored (PO) — output cells
//	[v]    framed  (PE) — cells examined during execution
//	_v_    lit     (PC) — cells of projected/aggregated columns
//	v      unrelated
const (
	coloredOpen, coloredClose = "**", "**"
	framedOpen, framedClose   = "[", "]"
	litOpen, litClose         = "_", "_"
)

// Legend describes the text markers, for CLI help and example output.
func Legend() string {
	return "legend: **colored** = query output (PO), [framed] = examined during execution (PE), _lit_ = projected columns (PC)"
}

func markText(s string, m provenance.Marking) string {
	switch m {
	case provenance.Colored:
		return coloredOpen + s + coloredClose
	case provenance.Framed:
		return framedOpen + s + framedClose
	case provenance.Lit:
		return litOpen + s + litClose
	default:
		return s
	}
}

// header renders a column header for Text, ANSI and HTML, wrapping it
// in its aggregate marker when Algorithm 1 marked one, the function in
// upper case as Figure 1 prints it: "MAX(Year)". JSONGrid keeps the
// function as the query spells it: "max(Year)".
func header(t *table.Table, h *provenance.Highlights, col int) string {
	name := t.Column(col)
	if fn, ok := h.HeaderAggr(col); ok {
		return strings.ToUpper(string(fn)) + "(" + name + ")"
	}
	return name
}

// Text renders the table with text markers. rows selects which records
// to draw (nil = all); gaps between selected records render as an
// ellipsis row, reproducing the Figure 7 large-table presentation.
func Text(t *table.Table, h *provenance.Highlights, rows []int) string {
	if rows == nil {
		rows = t.Records()
	}
	grid := buildGrid(t, h, rows, markText)
	return alignGrid(grid)
}

func buildGrid(t *table.Table, h *provenance.Highlights, rows []int, mark func(string, provenance.Marking) string) [][]string {
	var grid [][]string
	head := make([]string, t.NumCols()+1)
	head[0] = "Row"
	for c := 0; c < t.NumCols(); c++ {
		head[c+1] = header(t, h, c)
	}
	grid = append(grid, head)
	prev := -1
	for _, r := range rows {
		if prev >= 0 && r > prev+1 {
			gap := make([]string, t.NumCols()+1)
			for i := range gap {
				gap[i] = "..."
			}
			grid = append(grid, gap)
		}
		prev = r
		line := make([]string, t.NumCols()+1)
		line[0] = fmt.Sprintf("%d", r)
		for c := 0; c < t.NumCols(); c++ {
			line[c+1] = mark(t.Raw(r, c), h.MarkingAt(r, c))
		}
		grid = append(grid, line)
	}
	return grid
}

func alignGrid(grid [][]string) string {
	widths := make([]int, len(grid[0]))
	for _, row := range grid {
		for c, cell := range row {
			if n := len([]rune(cell)); n > widths[c] {
				widths[c] = n
			}
		}
	}
	var b strings.Builder
	for _, row := range grid {
		for c, cell := range row {
			if c > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[c] - len([]rune(cell)); pad > 0 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ANSI escape sequences for terminal rendering.
const (
	ansiReset   = "\x1b[0m"
	ansiColored = "\x1b[30;42m" // black on green: output cells
	ansiFramed  = "\x1b[1;33m"  // bold yellow: execution cells
	ansiLit     = "\x1b[36m"    // cyan: column cells
)

// ANSI renders the table with terminal colors; layout matches Text.
func ANSI(t *table.Table, h *provenance.Highlights, rows []int) string {
	if rows == nil {
		rows = t.Records()
	}
	// Align on raw text first, then wrap with escapes so widths hold.
	plain := buildGrid(t, h, rows, func(s string, _ provenance.Marking) string { return s })
	widths := make([]int, len(plain[0]))
	for _, row := range plain {
		for c, cell := range row {
			if n := len([]rune(cell)); n > widths[c] {
				widths[c] = n
			}
		}
	}
	var b strings.Builder
	rowAt := 0
	writeLine := func(cells []string, marks []provenance.Marking) {
		for c, cell := range cells {
			if c > 0 {
				b.WriteString("  ")
			}
			padded := cell + strings.Repeat(" ", widths[c]-len([]rune(cell)))
			if marks == nil {
				b.WriteString(padded)
				continue
			}
			switch marks[c] {
			case provenance.Colored:
				b.WriteString(ansiColored + padded + ansiReset)
			case provenance.Framed:
				b.WriteString(ansiFramed + padded + ansiReset)
			case provenance.Lit:
				b.WriteString(ansiLit + padded + ansiReset)
			default:
				b.WriteString(padded)
			}
		}
		b.WriteByte('\n')
	}
	writeLine(plain[0], nil)
	prev := -1
	for _, r := range rows {
		rowAt++
		if prev >= 0 && r > prev+1 {
			writeLine(plain[rowAt], nil)
			rowAt++
		}
		prev = r
		marks := make([]provenance.Marking, t.NumCols()+1)
		for c := 0; c < t.NumCols(); c++ {
			marks[c+1] = h.MarkingAt(r, c)
		}
		writeLine(plain[rowAt], marks)
	}
	return b.String()
}

// HTML renders the table as an HTML fragment with one CSS class per
// provenance level, mirroring the paper's web interface.
func HTML(t *table.Table, h *provenance.Highlights, rows []int) string {
	if rows == nil {
		rows = t.Records()
	}
	var b strings.Builder
	b.WriteString(`<table class="prov-highlights">` + "\n<thead><tr>")
	for c := 0; c < t.NumCols(); c++ {
		b.WriteString("<th>" + html.EscapeString(header(t, h, c)) + "</th>")
	}
	b.WriteString("</tr></thead>\n<tbody>\n")
	prev := -1
	for _, r := range rows {
		if prev >= 0 && r > prev+1 {
			b.WriteString(`<tr class="gap"><td colspan="` + fmt.Sprint(t.NumCols()) + `">&hellip;</td></tr>` + "\n")
		}
		prev = r
		b.WriteString("<tr>")
		for c := 0; c < t.NumCols(); c++ {
			class := ""
			switch h.MarkingAt(r, c) {
			case provenance.Colored:
				class = ` class="colored"`
			case provenance.Framed:
				class = ` class="framed"`
			case provenance.Lit:
				class = ` class="lit"`
			}
			b.WriteString("<td" + class + ">" + html.EscapeString(t.Raw(r, c)) + "</td>")
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</tbody>\n</table>")
	return b.String()
}

// Cell is one rendered cell in a JSON-friendly grid: the raw text plus
// its provenance marking name ("colored" | "framed" | "lit", empty when
// unmarked).
type Cell struct {
	Text    string `json:"text"`
	Marking string `json:"marking,omitempty"`
}

// Grid is a highlighted table in JSON-friendly form: the "grid" of the
// explanation document (export.ExplanationJSON) that /v1/explain serves
// and the library's ExplainJSON returns. Headers carry aggregate
// markers where Algorithm 1 places them, the function as the query
// spells it ("max(Year)"; Text, ANSI and HTML upper-case it,
// "MAX(Year)"); Rows holds the source record index of each cell row so
// front-ends can show original positions for sampled tables.
//
// Every cell and its marking is a function of the table and the
// provenance levels, so the grid View builds keeps those and no cells:
// it is a view of the table. Its Cells is nil, and so is its Rows when
// it shows every record. AppendIndent and MarshalJSON write a view's
// rows and cells from the table as they go, the same bytes as for the
// grid holding them, which WithCells returns. A grid built field by
// field is written as its fields say.
type Grid struct {
	Name    string   `json:"name"`
	Headers []string `json:"headers"`
	Rows    []int    `json:"rows"`
	Cells   [][]Cell `json:"cells"`
	Sampled bool     `json:"sampled"`

	// t is the table a view shows, nil for a grid built field by field;
	// levels are the chain of Algorithm 1, widest first: PC, PE, PO.
	t      *table.Table
	levels [3]table.Level
}

// View builds the grid of the given records of t under highlights h
// as a view of t: headers and rows, but no cells. rows selects which
// records to include (nil = all); sampled flags that rows is a Section
// 5.3 sample rather than the full table. The grid keeps t, rows and
// h's levels, not h.
func View(t *table.Table, h *provenance.Highlights, rows []int, sampled bool) Grid {
	p := h.Prov
	g := Grid{
		Name:    t.Name(),
		Headers: make([]string, t.NumCols()),
		Rows:    rows,
		Sampled: sampled,
		t:       t,
		levels:  [3]table.Level{p.Columns, p.Execution, p.Output},
	}
	for c := 0; c < t.NumCols(); c++ {
		name := t.Column(c)
		if fn, ok := h.HeaderAggr(c); ok {
			name = string(fn) + "(" + name + ")"
		}
		g.Headers[c] = name
	}
	return g
}

// JSONGrid builds the Grid for the given records of t under highlights
// h, holding its rows and cells: View, then WithCells.
func JSONGrid(t *table.Table, h *provenance.Highlights, rows []int, sampled bool) Grid {
	return View(t, h, rows, sampled).WithCells()
}

// WithCells returns g holding its rows and cells: a view's rendered
// from its table, and any other grid as it is.
func (g Grid) WithCells() Grid {
	if g.t == nil || g.Cells != nil {
		return g
	}
	if g.Rows == nil {
		g.Rows = g.t.Records()
	}
	var buf [3 * stackCols]table.Cursor
	m := g.marker(buf[:0])
	// All cell rows live in one flat exactly-sized backing array: two
	// allocations for the whole grid instead of one per row.
	cols := g.t.NumCols()
	g.Cells = make([][]Cell, 0, len(g.Rows))
	flat := make([]Cell, 0, len(g.Rows)*cols)
	for _, r := range g.Rows {
		base := len(flat)
		for c := range cols {
			flat = append(flat, m.cell(r, c))
		}
		g.Cells = append(g.Cells, flat[base:len(flat):len(flat)])
	}
	return g
}

// stackCols is the widest table whose cursors a grid's walk keeps on
// the stack; a wider one allocates them, once a walk.
const stackCols = 16

// marker marks a view's cells row by row, the rows ascending: a cursor
// per column of each level, so a cell costs a step down its column, not
// a search of it. A row below the last one asked starts the cursors
// afresh.
type marker struct {
	g *Grid
	// cur holds the cursors level by level, in the order of g.levels:
	// PC's cols columns, then PE's, then PO's.
	cur  []table.Cursor
	cols int
	last int
}

// marker returns g's marker, its cursors in buf when they fit.
func (g *Grid) marker(buf []table.Cursor) marker {
	n := 3 * g.t.NumCols()
	if cap(buf) < n {
		buf = make([]table.Cursor, n)
	}
	m := marker{g: g, cur: buf[:n], cols: n / 3}
	m.reset()
	return m
}

func (m *marker) reset() {
	m.last = 0
	for k, l := range m.g.levels {
		l.Cursors(m.cur[k*m.cols : (k+1)*m.cols])
	}
}

// cell renders the cell at (r, c).
func (m *marker) cell(r, c int) Cell {
	if r < m.last {
		m.reset()
	}
	m.last = r
	inPC := m.cur[c].Holds(r)
	inPE := inPC && m.cur[m.cols+c].Holds(r)
	cell := Cell{Text: m.g.t.Raw(r, c)}
	if mk := provenance.Innermost(inPC, inPE, inPE && m.cur[2*m.cols+c].Holds(r)); mk != provenance.None {
		cell.Marking = mk.String()
	}
	return cell
}

// AppendIndent appends g as two-space-indented JSON, nested depth
// levels deep, as json.MarshalIndent writes the grid holding its cells:
// a view's rows (0 to n-1 when it shows every record) and cells are
// written from its table.
func (g *Grid) AppendIndent(dst []byte, depth int) []byte {
	in := depth + 1
	dst = jsonw.String(jsonw.Key(append(dst, '{'), in, "name"), g.Name)
	dst = jsonw.Array(jsonw.Key(append(dst, ','), in, "headers"), in, g.Headers, jsonw.StringElem)
	if g.t == nil || g.Cells != nil {
		dst = jsonw.Array(jsonw.Key(append(dst, ','), in, "rows"), in, g.Rows, jsonw.IntElem)
		dst = jsonw.Array(jsonw.Key(append(dst, ','), in, "cells"), in, g.Cells, appendCellRow)
	} else {
		dst = jsonw.Elems(jsonw.Key(append(dst, ','), in, "rows"), in, g.shown(), func(dst []byte, _, i int) []byte {
			return strconv.AppendInt(dst, int64(g.record(i)), 10)
		})
		dst = g.appendViewCells(jsonw.Key(append(dst, ','), in, "cells"), in)
	}
	dst = strconv.AppendBool(jsonw.Key(append(dst, ','), in, "sampled"), g.Sampled)
	return append(jsonw.Newline(dst, depth), '}')
}

// MarshalJSON writes the bytes AppendIndent does, so encoding/json
// writes a view as it writes the grid holding its cells.
func (g Grid) MarshalJSON() ([]byte, error) { return g.AppendIndent(nil, 0), nil }

// shown returns the number of rows a view shows and the source record
// of the i-th.
func (g *Grid) shown() int {
	if g.Rows == nil {
		return g.t.NumRows()
	}
	return len(g.Rows)
}

func (g *Grid) record(i int) int {
	if g.Rows == nil {
		return i
	}
	return g.Rows[i]
}

// appendViewCells writes a view's cells as jsonw.Array writes held
// ones, rendering each as it goes: nothing is allocated a cell.
func (g *Grid) appendViewCells(dst []byte, depth int) []byte {
	var buf [3 * stackCols]table.Cursor
	m := g.marker(buf[:0])
	return jsonw.Elems(dst, depth, g.shown(), func(dst []byte, depth, i int) []byte {
		r := g.record(i)
		return jsonw.Elems(dst, depth, m.cols, func(dst []byte, depth, c int) []byte {
			return appendCell(dst, depth, m.cell(r, c))
		})
	})
}

func appendCellRow(dst []byte, depth int, row []Cell) []byte {
	return jsonw.Array(dst, depth, row, appendCell)
}

func appendCell(dst []byte, depth int, c Cell) []byte {
	dst = jsonw.String(jsonw.Key(append(dst, '{'), depth+1, "text"), c.Text)
	if c.Marking != "" {
		dst = jsonw.String(jsonw.Key(append(dst, ','), depth+1, "marking"), c.Marking)
	}
	return append(jsonw.Newline(dst, depth), '}')
}

// CSS returns a stylesheet for the HTML rendering, matching the paper's
// visual language: colored cells filled, framed cells outlined, lit
// cells tinted.
func CSS() string {
	return `.prov-highlights { border-collapse: collapse; font-family: sans-serif; }
.prov-highlights th, .prov-highlights td { border: 1px solid #ccc; padding: 2px 8px; }
.prov-highlights td.colored { background: #7bd389; font-weight: bold; }
.prov-highlights td.framed { outline: 2px solid #e0a800; outline-offset: -2px; }
.prov-highlights td.lit { background: #fff3bf; }
.prov-highlights tr.gap td { text-align: center; color: #999; }`
}
