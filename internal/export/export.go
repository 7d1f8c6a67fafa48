// Package export builds the explanation document: the one place the
// stages of an explanation — traced execution, highlights, the Section
// 5.3 sample, utterance, SQL, grid and the PO/PE/PC levels — are put
// together, and the one type they are held in. The deployment interface
// of Section 6.3 shows, per candidate, the utterance and the highlighted
// table; the engine serves this document on /v1/explain, the library
// returns it from ExplainJSON and renders its highlights as text, ANSI
// and HTML, and the figure gallery draws through it.
package export

import (
	"context"

	"nlexplain/internal/dcs"
	"nlexplain/internal/provenance"
	"nlexplain/internal/render"
	"nlexplain/internal/sqlgen"
	"nlexplain/internal/table"
	"nlexplain/internal/utterance"
)

// ExplanationJSON is the full explanation of one candidate query over
// one table, ready for JSON encoding. Table is the highlighted grid:
// headers (with aggregate markers applied) and marked cells, restricted
// to the sampled rows for large tables. Version is the table's content
// version, which the engine sets from the snapshot it explained; a
// document built outside the engine leaves it empty and the JSON omits
// it. Cached instances are shared across requests: treat as immutable.
type ExplanationJSON struct {
	Name       string      `json:"table"`
	Version    string      `json:"version,omitempty"`
	Query      string      `json:"query"`
	Utterance  string      `json:"utterance"`
	SQL        string      `json:"sql,omitempty"` // empty outside the SQL fragment
	Result     string      `json:"result"`
	Table      render.Grid `json:"grid"`
	Provenance ProvJSON    `json:"provenance"`
}

// ProvJSON is the multilevel provenance Prov(Q,T) = (PO, PE, PC) in
// wire form: the levels as the pipeline holds them, each cell a
// {"row", "col"} object, sorted row-major per level.
type ProvJSON struct {
	Output      table.CellSet     `json:"output"`
	Execution   table.CellSet     `json:"execution"`
	Columns     table.CellSet     `json:"columns"`
	Aggrs       []string          `json:"aggrs,omitempty"`
	HeaderAggrs map[string]string `json:"header_aggrs,omitempty"` // column name -> fn
}

func provJSON(t *table.Table, p *provenance.Prov) ProvJSON {
	j := ProvJSON{Output: p.Output, Execution: p.Execution, Columns: p.Columns}
	for _, fn := range p.Aggrs {
		j.Aggrs = append(j.Aggrs, string(fn))
	}
	if len(p.HeaderAggrs) > 0 {
		j.HeaderAggrs = make(map[string]string, len(p.HeaderAggrs))
		for col, fn := range p.HeaderAggrs {
			j.HeaderAggrs[t.Column(col)] = string(fn)
		}
	}
	return j
}

// Build computes the explanation document for a query over a table and
// also returns the highlights it derived, which the library's text,
// ANSI and HTML renderings draw. threshold is the
// row budget before Section 5.3 sampling kicks in; <= 0 selects the
// default, provenance.SampleThreshold.
func Build(q dcs.Expr, t *table.Table, threshold int) (*ExplanationJSON, *provenance.Highlights, error) {
	c, err := dcs.Compile(q, t)
	if err != nil {
		return nil, nil, err
	}
	return BuildCompiledCtx(nil, c, t, threshold)
}

// BuildCompiledCtx is Build for an already-compiled query, with
// cooperative cancellation threaded into the traced execution; a nil
// ctx disables the checks. The source expression is read off the plan,
// so the document and the executed plan can never disagree; the result
// string and the highlights both come from the single traced execution
// the provenance pipeline performs.
func BuildCompiledCtx(ctx context.Context, c *dcs.Compiled, t *table.Table, threshold int) (*ExplanationJSON, *provenance.Highlights, error) {
	q := c.Expr
	if threshold <= 0 {
		threshold = provenance.SampleThreshold
	}
	h, res, err := provenance.HighlightCompiledCtx(ctx, c, t)
	if err != nil {
		return nil, nil, err
	}
	var rows []int
	sampled := false
	if t.NumRows() > threshold {
		rows = provenance.Sample(q, t, h)
		sampled = true
	}

	doc := &ExplanationJSON{
		Name:       t.Name(),
		Query:      q.String(),
		Utterance:  utterance.Utter(q),
		Result:     res.String(),
		Table:      render.JSONGrid(t, h, rows, sampled),
		Provenance: provJSON(t, h.Prov),
	}
	if sql, err := sqlgen.TranslateSQL(q); err == nil {
		doc.SQL = sql
	}
	return doc, h, nil
}

// Marshal builds the explanation of a query over a table and renders
// it as indented JSON, through the encoder the server writes it with.
func Marshal(q dcs.Expr, t *table.Table) ([]byte, error) {
	doc, _, err := Build(q, t, 0)
	if err != nil {
		return nil, err
	}
	return doc.AppendIndent(nil, 0), nil
}
