// Package export serializes explanations to JSON for web front-ends —
// the deployment interface of Section 6.3 is a web page showing, per
// candidate, the utterance and the highlighted table; this package
// defines that wire format.
package export

import (
	"context"
	"encoding/json"

	"nlexplain/internal/dcs"
	"nlexplain/internal/provenance"
	"nlexplain/internal/render"
	"nlexplain/internal/sqlgen"
	"nlexplain/internal/table"
	"nlexplain/internal/utterance"
)

// ExplanationJSON is the full explanation of one candidate query. Table
// is the highlighted table: headers (with aggregate markers applied)
// and marked cells, restricted to the sampled rows for large tables.
type ExplanationJSON struct {
	Query     string      `json:"query"`
	Utterance string      `json:"utterance"`
	SQL       string      `json:"sql,omitempty"`
	Result    string      `json:"result"`
	Table     render.Grid `json:"table"`
}

// Build computes the explanation document for a query over a table and
// also returns the highlights it derived, so callers (the engine, the
// server wire format) can project extra views such as the raw
// provenance sets without re-running the pipeline. threshold is the
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
		Query:     q.String(),
		Utterance: utterance.Utter(q),
		Result:    res.String(),
		Table:     render.JSONGrid(t, h, rows, sampled),
	}
	if sql, err := sqlgen.TranslateSQL(q); err == nil {
		doc.SQL = sql
	}
	return doc, h, nil
}

// Explanation builds the JSON document for a query over a table.
func Explanation(q dcs.Expr, t *table.Table) (*ExplanationJSON, error) {
	doc, _, err := Build(q, t, 0)
	return doc, err
}

// Marshal renders the explanation as indented JSON.
func Marshal(q dcs.Expr, t *table.Table) ([]byte, error) {
	doc, err := Explanation(q, t)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(doc, "", "  ")
}
