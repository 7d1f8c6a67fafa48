package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"nlexplain"
	"nlexplain/internal/export"
	"nlexplain/internal/qrand"
	"nlexplain/internal/render"
	"nlexplain/internal/table"
)

// encodeJSON is what writeJSON puts on the wire for v.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestAppendedResponsesMatchEncodingJSON holds the two responses
// written without reflection, /v1/explain's and /v1/explain/batch's, to
// the bytes writeJSON's encoder makes of the same values: over the
// engine's explanations of seeded random queries and of a table of
// hostile cells, over documents with nil and empty slices, and over
// batches that mix explanations and errors.
func TestAppendedResponsesMatchEncodingJSON(t *testing.T) {
	check := func(what string, v any, got []byte) {
		t.Helper()
		if want := encodeJSON(t, v); !bytes.Equal(got, want) {
			t.Fatalf("%s:\n%s\nwant:\n%s", what, got, want)
		}
	}
	e := nlexplain.NewEngine(nlexplain.EngineOptions{Workers: 1})
	var docs []*nlexplain.EngineExplanation
	rng := rand.New(rand.NewSource(2019))
	for i := 0; i < 200; i++ {
		tab := qrand.Table(rng)
		q := qrand.Query(rng, tab, 1+rng.Intn(3))
		if _, err := e.RegisterTable(tab); err != nil {
			t.Fatal(err)
		}
		if ex, _, err := e.ExplainCached(context.Background(), tab.Name(), q.String()); err == nil {
			docs = append(docs, ex)
		}
	}
	if _, err := e.RegisterRaw("hostile", []string{"Text", "City", "Year"}, [][]string{
		{`<b>&amp;</b>`, "Athens", "1896"},
		{`say "hi" \ back`, "Paris", "1900"},
		{"ctl\x01\t\n", "Athens", "2004"},
		{"bad\xffutf8", "Paris", "2008"},
		{"line\u2028para\u2029", "Athens", "2012"},
		{"Zürich 東京", "Paris", "2016"},
	}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"R[Text].City.Athens", "max(R[Year].City.Paris)", "sub(max(R[Year].City.Athens), min(R[Year].City.Paris))"} {
		ex, _, err := e.ExplainCached(context.Background(), "hostile", q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		docs = append(docs, ex)
	}
	docs = append(docs, &nlexplain.EngineExplanation{}, &nlexplain.EngineExplanation{
		Name:  "empty",
		Table: render.Grid{Headers: []string{}, Rows: []int{}, Cells: [][]render.Cell{}},
		Provenance: export.ProvJSON{Output: table.CellSet{}, Execution: table.CellSet{}, Columns: table.CellSet{},
			HeaderAggrs: map[string]string{"B": "sum", "A": "max", "<C>": "min"}, Aggrs: []string{"max", "sum"}},
	})
	if len(docs) < 100 {
		t.Fatalf("only %d explanations to encode", len(docs))
	}

	for i, ex := range docs {
		r := explainResponse{EngineExplanation: ex, Cached: i%2 == 0}
		check("explain "+ex.Query, r, r.appendJSON(nil))
	}
	batches := []batchResponse{
		{},
		{Results: []batchItem{}},
		{Results: []batchItem{
			{Explanation: docs[0], Cached: true},
			{Error: `unknown table: "<nope>"`, ErrorCode: codeUnknownTable},
			{Explanation: docs[len(docs)-1]},
			{Error: "bad\xffquery\u2028"},
		}, Errors: 2},
	}
	for i := 0; i+1 < len(docs); i += 7 {
		batches = append(batches, batchResponse{Results: []batchItem{{Explanation: docs[i]}, {Explanation: docs[i+1], Cached: true}}})
	}
	for _, r := range batches {
		check("batch", r, r.appendJSON(nil))
	}
}
