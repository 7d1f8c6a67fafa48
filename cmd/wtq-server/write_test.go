package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"nlexplain/internal/engine"
)

// pieceWriter is a ResponseWriter that keeps the body written to it and
// the size of its largest single Write, and fails the failAt-th Write
// (counting from 1; 0 fails none) and every one after it.
type pieceWriter struct {
	header  http.Header
	status  int
	body    []byte
	writes  int
	largest int
	failAt  int
}

var errClientGone = errors.New("client went away")

func (w *pieceWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *pieceWriter) WriteHeader(status int) { w.status = status }

func (w *pieceWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.failAt > 0 && w.writes >= w.failAt {
		return 0, errClientGone
	}
	w.body = append(w.body, p...)
	w.largest = max(w.largest, len(p))
	return len(p), nil
}

// wideMux is a server holding the table "wide", and serve sends it one
// request to w.
func wideMux(t *testing.T) (serve func(w http.ResponseWriter, url, body string)) {
	t.Helper()
	e := engine.New(engine.Options{Workers: 1})
	if _, err := e.RegisterRaw("wide", wideColumns, wideRows()); err != nil {
		t.Fatal(err)
	}
	mux := newMux(e, muxConfig{})
	return func(w http.ResponseWriter, url, body string) {
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, url, strings.NewReader(body)))
	}
}

// batchBody is the /v1/explain/batch request of queries over "wide".
func batchBody(t *testing.T, queries ...string) string {
	var req batchRequest
	for _, q := range queries {
		req.Queries = append(req.Queries, explainRequest{Table: "wide", Query: q})
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBatchWriteBound holds what a batch response keeps to write at
// once: no single Write of the wide batch (~440 KB) passes flushBytes
// plus the largest of its items, measured as that item's own one-query
// batch. A response held whole would write the body in one piece.
// make parse-footprint runs it.
func TestBatchWriteBound(t *testing.T) {
	serve := wideMux(t)
	largestItem := 0
	for _, q := range wideQueries {
		w := new(pieceWriter)
		serve(w, "/v1/explain/batch", batchBody(t, q))
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, w.status, w.body)
		}
		largestItem = max(largestItem, len(w.body))
	}
	w := new(pieceWriter)
	serve(w, "/v1/explain/batch", batchBody(t, wideQueries...))
	if w.status != http.StatusOK {
		t.Fatalf("status %d: %s", w.status, w.body)
	}
	bound := flushBytes + largestItem
	t.Logf("%d bytes in %d writes, the largest %d; bound %d", len(w.body), w.writes, w.largest, bound)
	if len(w.body) <= bound {
		t.Fatalf("the batch is %d bytes, within the bound %d it is meant to pass", len(w.body), bound)
	}
	if w.largest > bound {
		t.Errorf("a single write of %d bytes, want at most %d (flushBytes %d + largest item %d)", w.largest, bound, flushBytes, largestItem)
	}
}

// TestBatchClientGone serves the wide batch to a client that goes away
// after the first piece: the handler makes no write after the failed
// one, logs it once, and the next requests through the same mux get
// the bytes undisturbed ones got. Every query is a cache hit by then,
// so each request's bytes are the same.
func TestBatchClientGone(t *testing.T) {
	serve := wideMux(t)
	requests := []struct{ url, body string }{
		{"/v1/explain/batch", batchBody(t, wideQueries...)},
		{"/v1/explain", `{"table":"wide","query":"` + wideQueries[0] + `"}`},
	}
	want := make([]*pieceWriter, len(requests))
	for i, r := range requests {
		serve(new(pieceWriter), r.url, r.body) // fill the result cache
		want[i] = new(pieceWriter)
		serve(want[i], r.url, r.body)
	}

	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	gone := &pieceWriter{failAt: 2}
	serve(gone, requests[0].url, requests[0].body)
	log.SetOutput(os.Stderr)
	if gone.writes != 2 {
		t.Errorf("%d writes to a client whose second write failed, want 2", gone.writes)
	}
	if n := strings.Count(logged.String(), "writing response"); n != 1 {
		t.Errorf("the failed write was logged %d times, want once:\n%s", n, logged.String())
	}

	for i, r := range requests {
		got := new(pieceWriter)
		serve(got, r.url, r.body)
		if got.status != want[i].status || !bytes.Equal(got.body, want[i].body) {
			t.Errorf("%s after a failed write: status %d, %d bytes; want %d, %d bytes", r.url, got.status, len(got.body), want[i].status, len(want[i].body))
		}
	}
}

// TestWriteJSONEncodeFailure answers a value encoding/json refuses (a
// NaN) with the internal error envelope, and writes nothing of it.
func TestWriteJSONEncodeFailure(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	for range 2 { // the second time through a body the pool may hand out again
		w := new(pieceWriter)
		writeJSON(w, http.StatusOK, math.NaN())
		if want := "{\n  \"error\": {\n    \"code\": \"internal\",\n    \"message\": \"internal server error\"\n  }\n}\n"; w.status != http.StatusInternalServerError || string(w.body) != want || w.writes != 1 {
			t.Fatalf("status %d, %d writes:\n%s", w.status, w.writes, w.body)
		}
	}
}
