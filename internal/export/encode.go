package export

import (
	"encoding/json"
	"slices"
	"strconv"

	"nlexplain/internal/render"
	"nlexplain/internal/table"
)

// The encoder below writes the explanation document by hand: the bytes
// encoding/json makes of it with a two-space indent, appended in one
// pass, without reflection and without re-indenting compact output. The
// struct tags of ExplanationJSON, render.Grid, render.Cell, ProvJSON and
// table.CellRef stay the spec: every member, its order, omitempty, nil
// slices as null and empty ones as [], sorted map keys. The tests hold
// the encoder to json.MarshalIndent byte for byte.

// AppendIndent appends d as two-space-indented JSON, nested depth
// levels deep: the opening brace where dst ends, the members at depth+1
// and the closing brace at depth. At depth 0 it appends what
// json.MarshalIndent(d, "", "  ") returns.
func (d *ExplanationJSON) AppendIndent(dst []byte, depth int) []byte {
	dst = d.AppendMembers(append(dst, '{'), depth+1)
	return append(newline(dst, depth), '}')
}

// AppendMembers appends d's members as AppendIndent does, each on a line
// of its own at depth, but not the braces around them, so a caller can
// add members of its own to the same object.
func (d *ExplanationJSON) AppendMembers(dst []byte, depth int) []byte {
	dst = AppendString(key(dst, depth, "table"), d.Name)
	if d.Version != "" {
		dst = AppendString(key(append(dst, ','), depth, "version"), d.Version)
	}
	dst = AppendString(key(append(dst, ','), depth, "query"), d.Query)
	dst = AppendString(key(append(dst, ','), depth, "utterance"), d.Utterance)
	if d.SQL != "" {
		dst = AppendString(key(append(dst, ','), depth, "sql"), d.SQL)
	}
	dst = AppendString(key(append(dst, ','), depth, "result"), d.Result)
	dst = appendGrid(key(append(dst, ','), depth, "grid"), depth, &d.Table)
	return appendProv(key(append(dst, ','), depth, "provenance"), depth, &d.Provenance)
}

func appendGrid(dst []byte, depth int, g *render.Grid) []byte {
	in := depth + 1
	dst = AppendString(key(append(dst, '{'), in, "name"), g.Name)
	dst = appendArray(key(append(dst, ','), in, "headers"), in, g.Headers, appendStringElem)
	dst = appendArray(key(append(dst, ','), in, "rows"), in, g.Rows, appendInt)
	dst = appendArray(key(append(dst, ','), in, "cells"), in, g.Cells, appendCellRow)
	dst = strconv.AppendBool(key(append(dst, ','), in, "sampled"), g.Sampled)
	return append(newline(dst, depth), '}')
}

func appendCellRow(dst []byte, depth int, row []render.Cell) []byte {
	return appendArray(dst, depth, row, appendCell)
}

func appendCell(dst []byte, depth int, c render.Cell) []byte {
	dst = AppendString(key(append(dst, '{'), depth+1, "text"), c.Text)
	if c.Marking != "" {
		dst = AppendString(key(append(dst, ','), depth+1, "marking"), c.Marking)
	}
	return append(newline(dst, depth), '}')
}

func appendProv(dst []byte, depth int, p *ProvJSON) []byte {
	in := depth + 1
	dst = appendLevel(key(append(dst, '{'), in, "output"), in, p.Output)
	dst = appendLevel(key(append(dst, ','), in, "execution"), in, p.Execution)
	dst = appendLevel(key(append(dst, ','), in, "columns"), in, p.Columns)
	if len(p.Aggrs) > 0 {
		dst = appendArray(key(append(dst, ','), in, "aggrs"), in, p.Aggrs, appendStringElem)
	}
	if len(p.HeaderAggrs) > 0 {
		var buf [8]string // a document names few columns: sort them on the stack
		cols := buf[:0]
		for col := range p.HeaderAggrs {
			cols = append(cols, col)
		}
		slices.Sort(cols)
		dst = append(key(append(dst, ','), in, "header_aggrs"), '{')
		for i, col := range cols {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendString(newline(dst, in+1), col)
			dst = AppendString(append(dst, ": "...), p.HeaderAggrs[col])
		}
		dst = append(newline(dst, in), '}')
	}
	return append(newline(dst, depth), '}')
}

// appendLevel lists a level's cells as a JSON array at depth, one per
// line: the one place a cached level is expanded to its cells, and []
// when it has none.
func appendLevel(dst []byte, depth int, l table.Level) []byte {
	n := len(dst)
	dst = append(dst, '[')
	for c := range l.All() {
		if len(dst) > n+1 {
			dst = append(dst, ',')
		}
		dst = appendCellRef(newline(dst, depth+1), depth+1, c)
	}
	if len(dst) == n+1 {
		return append(dst, ']')
	}
	return append(newline(dst, depth), ']')
}

func appendCellRef(dst []byte, depth int, c table.CellRef) []byte {
	dst = strconv.AppendInt(key(append(dst, '{'), depth+1, "row"), int64(c.Row), 10)
	dst = strconv.AppendInt(key(append(dst, ','), depth+1, "col"), int64(c.Col), 10)
	return append(newline(dst, depth), '}')
}

func appendStringElem(dst []byte, _ int, s string) []byte { return AppendString(dst, s) }

func appendInt(dst []byte, _ int, n int) []byte { return strconv.AppendInt(dst, int64(n), 10) }

// appendArray appends s as a JSON array at depth, one element per line
// at depth+1 written by elem: null for a nil slice, [] for an empty one.
func appendArray[E any](dst []byte, depth int, s []E, elem func(dst []byte, depth int, e E) []byte) []byte {
	if s == nil {
		return append(dst, "null"...)
	}
	if len(s) == 0 {
		return append(dst, "[]"...)
	}
	dst = append(dst, '[')
	for i, e := range s {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(newline(dst, depth+1), depth+1, e)
	}
	return append(newline(dst, depth), ']')
}

// key starts a member on a new line at depth: the quoted name, a colon
// and a space. name must need no escaping; the separating comma, if
// any, is the caller's.
func key(dst []byte, depth int, name string) []byte {
	dst = append(newline(dst, depth), '"')
	dst = append(dst, name...)
	return append(dst, `": `...)
}

func newline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for range depth {
		dst = append(dst, "  "...)
	}
	return dst
}

// plain marks the bytes a JSON string holds as they are under
// encoding/json's defaults: printable ASCII other than the quote, the
// backslash and the three characters HTML escaping rewrites.
var plain = func() (set [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		set[c] = true
	}
	for _, c := range `"\<>&` {
		set[c] = false
	}
	return set
}()

// AppendString appends s as a quoted JSON string, byte for byte what
// json.Marshal makes of it. A string of plain bytes is copied as it is;
// any other goes through json.Marshal, which owns the rest of the
// contract: control bytes, HTML escaping, U+FFFD for invalid UTF-8 and
// the \u2028 / \u2029 escapes.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
