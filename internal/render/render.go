// Package render draws highlighted tables. It turns the provenance-based
// highlights of Section 5.2 (colored = PO, framed = PE, lit = PC) into
// three outputs: plain text with markers (for tests, logs and docs), ANSI
// escapes (for terminals) and HTML (the paper's web interface rendered
// tables like Figures 1 and 4-9).
package render

import (
	"fmt"
	"html"
	"strings"

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
type Grid struct {
	Name    string   `json:"name"`
	Headers []string `json:"headers"`
	Rows    []int    `json:"rows"`
	Cells   [][]Cell `json:"cells"`
	Sampled bool     `json:"sampled"`
}

// JSONGrid builds the Grid for the given records of t under highlights
// h. rows selects which records to include (nil = all); sampled flags
// that rows is a Section 5.3 sample rather than the full table.
func JSONGrid(t *table.Table, h *provenance.Highlights, rows []int, sampled bool) Grid {
	if rows == nil {
		rows = t.Records()
	}
	g := Grid{
		Name:    t.Name(),
		Headers: make([]string, t.NumCols()),
		Rows:    rows,
		Cells:   make([][]Cell, 0, len(rows)),
		Sampled: sampled,
	}
	for c := 0; c < t.NumCols(); c++ {
		name := t.Column(c)
		if fn, ok := h.HeaderAggr(c); ok {
			name = string(fn) + "(" + name + ")"
		}
		g.Headers[c] = name
	}
	// All cell rows live in one flat exactly-sized backing array: two
	// allocations for the whole grid instead of one per row.
	flat := make([]Cell, 0, len(rows)*t.NumCols())
	for _, r := range rows {
		base := len(flat)
		for c := 0; c < t.NumCols(); c++ {
			cell := Cell{Text: t.Raw(r, c)}
			if m := h.MarkingAt(r, c); m != provenance.None {
				cell.Marking = m.String()
			}
			flat = append(flat, cell)
		}
		g.Cells = append(g.Cells, flat[base:len(flat):len(flat)])
	}
	return g
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
