package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"nlexplain/internal/engine"
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

// writeBatch is what the batch handler writes of r: the pieces body
// hands w, concatenated, and how many there were.
func writeBatch(r batchResponse) ([]byte, int) {
	w := new(pieceWriter)
	out := newBody(w, http.StatusOK)
	r.writeTo(out)
	out.close()
	return w.body, w.writes
}

// TestAppendedResponsesMatchEncodingJSON holds the two responses
// written without reflection, /v1/explain's and /v1/explain/batch's, to
// the bytes writeJSON's encoder makes of the same values (a batch's as
// the pieces it is written in, concatenated): over the
// engine's explanations of seeded random queries and of a table of
// hostile cells, over documents with nil and empty slices, over
// batches that mix explanations and errors, and over the wide batch of
// TestServerWireGolden, hundreds of kilobytes long.
func TestAppendedResponsesMatchEncodingJSON(t *testing.T) {
	check := func(what string, v any, got []byte) {
		t.Helper()
		if want := encodeJSON(t, v); !bytes.Equal(got, want) {
			t.Fatalf("%s:\n%s\nwant:\n%s", what, got, want)
		}
	}
	e := engine.New(engine.Options{Workers: 1})
	var docs []*engine.Explanation
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
	docs = append(docs, &engine.Explanation{}, &engine.Explanation{
		Name:  "empty",
		Table: render.Grid{Headers: []string{}, Rows: []int{}, Cells: [][]render.Cell{}},
		Provenance: export.ProvJSON{Output: table.Level{}, Execution: table.Level{}, Columns: table.Level{},
			HeaderAggrs: map[string]string{"B": "sum", "A": "max", "<C>": "min"}, Aggrs: []string{"max", "sum"}},
	})
	if len(docs) < 100 {
		t.Fatalf("only %d explanations to encode", len(docs))
	}

	for i, ex := range docs {
		r := explainResponse{Explanation: ex, Cached: i%2 == 0}
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
		got, _ := writeBatch(r)
		check("batch", r, got)
	}

	if _, err := e.RegisterRaw("wide", wideColumns, wideRows()); err != nil {
		t.Fatal(err)
	}
	var wide batchResponse
	for _, q := range wideQueries {
		ex, _, err := e.ExplainCached(context.Background(), "wide", q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		wide.Results = append(wide.Results, batchItem{Explanation: ex})
	}
	got, writes := writeBatch(wide)
	check("wide batch", wide, got)
	if writes < 4 {
		t.Fatalf("the wide batch's %d bytes went out in %d writes", len(got), writes)
	}
}
