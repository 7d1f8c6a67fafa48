package export

import (
	"slices"
	"strconv"

	"nlexplain/internal/jsonw"
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
	return append(jsonw.Newline(dst, depth), '}')
}

// AppendMembers appends d's members as AppendIndent does, each on a line
// of its own at depth, but not the braces around them, so a caller can
// add members of its own to the same object. The grid is written by
// render.Grid.AppendIndent, from its cells or from its view.
func (d *ExplanationJSON) AppendMembers(dst []byte, depth int) []byte {
	dst = jsonw.String(jsonw.Key(dst, depth, "table"), d.Name)
	if d.Version != "" {
		dst = jsonw.String(jsonw.Key(append(dst, ','), depth, "version"), d.Version)
	}
	dst = jsonw.String(jsonw.Key(append(dst, ','), depth, "query"), d.Query)
	dst = jsonw.String(jsonw.Key(append(dst, ','), depth, "utterance"), d.Utterance)
	if d.SQL != "" {
		dst = jsonw.String(jsonw.Key(append(dst, ','), depth, "sql"), d.SQL)
	}
	dst = jsonw.String(jsonw.Key(append(dst, ','), depth, "result"), d.Result)
	dst = d.Table.AppendIndent(jsonw.Key(append(dst, ','), depth, "grid"), depth)
	return appendProv(jsonw.Key(append(dst, ','), depth, "provenance"), depth, &d.Provenance)
}

func appendProv(dst []byte, depth int, p *ProvJSON) []byte {
	in := depth + 1
	dst = appendLevel(jsonw.Key(append(dst, '{'), in, "output"), in, p.Output)
	dst = appendLevel(jsonw.Key(append(dst, ','), in, "execution"), in, p.Execution)
	dst = appendLevel(jsonw.Key(append(dst, ','), in, "columns"), in, p.Columns)
	if len(p.Aggrs) > 0 {
		dst = jsonw.Array(jsonw.Key(append(dst, ','), in, "aggrs"), in, p.Aggrs, jsonw.StringElem)
	}
	if len(p.HeaderAggrs) > 0 {
		var buf [8]string // a document names few columns: sort them on the stack
		cols := buf[:0]
		for col := range p.HeaderAggrs {
			cols = append(cols, col)
		}
		slices.Sort(cols)
		dst = append(jsonw.Key(append(dst, ','), in, "header_aggrs"), '{')
		for i, col := range cols {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonw.String(jsonw.Newline(dst, in+1), col)
			dst = jsonw.String(append(dst, ": "...), p.HeaderAggrs[col])
		}
		dst = append(jsonw.Newline(dst, in), '}')
	}
	return append(jsonw.Newline(dst, depth), '}')
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
		dst = appendCellRef(jsonw.Newline(dst, depth+1), depth+1, c)
	}
	if len(dst) == n+1 {
		return append(dst, ']')
	}
	return append(jsonw.Newline(dst, depth), ']')
}

func appendCellRef(dst []byte, depth int, c table.CellRef) []byte {
	dst = strconv.AppendInt(jsonw.Key(append(dst, '{'), depth+1, "row"), int64(c.Row), 10)
	dst = strconv.AppendInt(jsonw.Key(append(dst, ','), depth+1, "col"), int64(c.Col), 10)
	return append(jsonw.Newline(dst, depth), '}')
}

// AppendString appends s as a quoted JSON string, byte for byte what
// json.Marshal makes of it: jsonw.String, which the server's own
// response members share with the document.
func AppendString(dst []byte, s string) []byte { return jsonw.String(dst, s) }
