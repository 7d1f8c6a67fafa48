package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nlexplain/internal/dcs"
	"nlexplain/internal/engine"
)

// driveTraffic sends one of everything so every latency histogram and
// cache counter has data behind it.
func driveTraffic(t *testing.T, ts *httptest.Server) {
	t.Helper()
	registerOlympics(t, ts)
	for _, req := range []struct {
		path string
		body map[string]string
	}{
		{"/v1/explain", map[string]string{"table": "olympics", "query": "count(Country.Greece)"}},
		{"/v1/answer", map[string]string{"table": "olympics", "query": "max(R[Year].Record)"}},
		{"/v1/parse", map[string]string{"table": "olympics", "question": "how many nations in 1900"}},
	} {
		if resp, body := postJSON(t, ts.URL+req.path, req.body); resp.StatusCode >= 500 {
			t.Fatalf("%s: status %d: %s", req.path, resp.StatusCode, body)
		}
	}
	// One guaranteed error, so the error counters are live too.
	postJSON(t, ts.URL+"/v1/explain", map[string]string{"table": "nope", "query": "count(Country.Greece)"})
}

// TestMetricsExposition checks the acceptance floor for GET /metrics:
// well-formed Prometheus text with at least 30 distinct series names,
// including the explain and answer latency histograms and the
// per-endpoint HTTP series.
func TestMetricsExposition(t *testing.T) {
	ts, _ := newTestServer(t)
	driveTraffic(t, ts)
	resp, body := getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content-type = %q", ct)
	}
	names := make(map[string]bool)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		names[name] = true
	}
	if len(names) < 30 {
		t.Errorf("only %d distinct series names, want >= 30", len(names))
	}
	for _, want := range []string{
		"engine_explain_latency_seconds_bucket",
		"engine_explain_latency_seconds_count",
		"engine_answer_latency_seconds_bucket",
		"engine_admission_wait_seconds_count",
		"engine_cache_result_hits",
		"engine_executions",
		"store_bytes",
		"store_tables",
		"server_http_requests",
		"server_http_explain_latency_seconds_bucket",
		"server_http_explain_requests",
		"server_http_explain_errors",
	} {
		if !names[want] {
			t.Errorf("series %q missing from /metrics", want)
		}
	}
	if !bytes.Contains(body, []byte("# TYPE store_evictions counter\n")) {
		t.Error("store_evictions is not declared a counter on /metrics")
	}
}

var update = flag.Bool("update", false, "rewrite golden files")

// TestMetricsExpositionGolden pins what a fresh server's GET /metrics
// declares: every "# HELP" and "# TYPE" line, in order, plus the
// service-wide and per-endpoint request counts after one table
// registration and one explain. Timings and sizes vary run to run, so
// no other sample is compared. Regenerate with -update.
func TestMetricsExpositionGolden(t *testing.T) {
	ts, _ := newTestServer(t)
	registerOlympics(t, ts)
	req := map[string]string{"table": "olympics", "query": "max(R[Year].Country.Greece)"}
	if resp, body := postJSON(t, ts.URL+"/v1/explain", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d: %s", resp.StatusCode, body)
	}
	resp, body := getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	requests := regexp.MustCompile(`^server_http_([a-z_]+_)?requests `)
	var got bytes.Buffer
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "# ") || requests.MatchString(line) {
			got.WriteString(line)
			got.WriteByte('\n')
		}
	}
	golden := filepath.Join("testdata", "metrics_exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("/metrics drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got.Bytes(), want)
	}
}

// TestErrorEnvelope locks the error shape: a stable machine code plus
// message under "error", and nothing else — in particular the removed
// "error_string" mirror must not reappear.
func TestErrorEnvelope(t *testing.T) {
	ts, _ := newTestServer(t)
	registerOlympics(t, ts)
	cases := []struct {
		name   string
		method string
		path   string
		body   any
		status int
		code   string
	}{
		{"unknown table resource", http.MethodGet, "/v1/tables/nope", nil, http.StatusNotFound, "unknown_table"},
		{"unknown table explain", http.MethodPost, "/v1/explain", map[string]string{"table": "nope", "query": "count(Country.Greece)"}, http.StatusNotFound, "unknown_table"},
		{"bad query", http.MethodPost, "/v1/explain", map[string]string{"table": "olympics", "query": "not a query"}, http.StatusBadRequest, "bad_request"},
		{"malformed body", http.MethodPost, "/v1/answer", "not an object", http.StatusBadRequest, "bad_request"},
		{"drop unknown", http.MethodDelete, "/v1/tables/nope", nil, http.StatusNotFound, "unknown_table"},
	}
	for _, tc := range cases {
		resp, body := doJSON(t, tc.method, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
			continue
		}
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Errorf("%s: %v: %s", tc.name, err, body)
			continue
		}
		if env.Error.Code != tc.code {
			t.Errorf("%s: code = %q, want %q", tc.name, env.Error.Code, tc.code)
		}
		if env.Error.Message == "" {
			t.Errorf("%s: empty error.message", tc.name)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(body, &raw); err == nil {
			if _, ok := raw["error_string"]; ok {
				t.Errorf("%s: removed error_string field present: %s", tc.name, body)
			}
		}
	}
}

// TestDynamicQueryError pins what a query that parses, checks and then
// fails while it runs looks like from outside: status 400, code
// bad_request, and a message — compared byte for byte — that names the
// failing sub-expression, through /v1/explain, /v1/answer and as one
// item of a /v1/explain/batch.
func TestDynamicQueryError(t *testing.T) {
	ts, _ := newTestServer(t)
	registerOlympics(t, ts)
	cases := []struct{ query, failure string }{
		{"sum(R[City].Country.Greece)", `executing sum(R[City].Country.Greece): sum over non-numeric value "Athens"`},
		{"sub(max(R[Year].Country.Atlantis), 1)", "executing max(R[Year].Country.Atlantis): max over an empty set"},
		{"sub(R[Year].Country.Greece, 1)", "executing sub(R[Year].Country.Greece, 1): left operand of sub must be a single value, got 2"},
	}
	var batch []map[string]string
	for _, tc := range cases {
		req := map[string]string{"table": "olympics", "query": tc.query}
		batch = append(batch, req)
		for path, verb := range map[string]string{"/v1/explain": "explaining", "/v1/answer": "answering"} {
			resp, body := postJSON(t, ts.URL+path, req)
			var env errorBody
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("%s %s: %v: %s", path, tc.query, err, body)
			}
			want := verb + " " + tc.query + " on olympics: " + tc.failure
			if resp.StatusCode != http.StatusBadRequest || env.Error.Code != "bad_request" || env.Error.Message != want {
				t.Errorf("%s %s: status %d code %q message %q, want 400 bad_request %q", path, tc.query, resp.StatusCode, env.Error.Code, env.Error.Message, want)
			}
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/explain/batch", map[string]any{"queries": batch})
	var out batchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("batch: %v: %s", err, body)
	}
	if resp.StatusCode != http.StatusOK || out.Errors != len(cases) || len(out.Results) != len(cases) {
		t.Fatalf("batch: status %d, %d errors in %d results, want 200 and %d of %d: %s", resp.StatusCode, out.Errors, len(out.Results), len(cases), len(cases), body)
	}
	for i, tc := range cases {
		want := "explaining " + tc.query + " on olympics: " + tc.failure
		if got := out.Results[i]; got.ErrorCode != "bad_request" || got.Error != want || got.Explanation != nil {
			t.Errorf("batch item %d: code %q error %q, want bad_request %q and no explanation", i, got.ErrorCode, got.Error, want)
		}
	}
}

// TestPipelineErrorClasses drives every pipeline error class through
// writePipelineError: one status and one stable code per class, and a
// Retry-After on both 503s — a shed request is told to back off just
// like a mutation against a degraded store.
func TestPipelineErrorClasses(t *testing.T) {
	cases := []struct {
		err        error
		status     int
		code       string
		retryAfter bool
	}{
		{context.DeadlineExceeded, http.StatusGatewayTimeout, "deadline_exceeded", false},
		{context.Canceled, 499, "canceled", false},
		{engine.ErrUnknownTable, http.StatusNotFound, "unknown_table", false},
		{engine.ErrUnavailable, http.StatusServiceUnavailable, "unavailable", true},
		{engine.ErrInternal, http.StatusInternalServerError, "internal", false},
		{engine.ErrOverloaded, http.StatusServiceUnavailable, "overloaded", true},
		{errors.New("parsing \"max((((\""), http.StatusBadRequest, "bad_request", false},
		{&dcs.DepthError{Limit: dcs.MaxDepth}, http.StatusBadRequest, "query_too_deep", false},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writePipelineError(rec, fmt.Errorf("explaining q on t: %w", tc.err))
		var env errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Errorf("%v: %v: %s", tc.err, err, rec.Body)
			continue
		}
		if rec.Code != tc.status || env.Error.Code != tc.code {
			t.Errorf("%v: status %d code %q, want %d %q", tc.err, rec.Code, env.Error.Code, tc.status, tc.code)
		}
		if got := rec.Header().Get("Retry-After") != ""; got != tc.retryAfter {
			t.Errorf("%v: Retry-After present = %v, want %v", tc.err, got, tc.retryAfter)
		}
	}
}

// TestTableResource covers GET /v1/tables/{name} and the list endpoint
// serving the same per-table objects.
func TestTableResource(t *testing.T) {
	ts, _ := newTestServer(t)
	registerOlympics(t, ts)
	resp, body := getJSON(t, ts.URL+"/v1/tables/olympics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var det engine.TableDetail
	if err := json.Unmarshal(body, &det); err != nil {
		t.Fatal(err)
	}
	if det.Name != "olympics" || det.Rows != 6 || det.Cols != 4 {
		t.Errorf("detail = %+v", det)
	}
	if len(det.Columns) != 4 || det.Columns[0] != "Year" {
		t.Errorf("columns = %v", det.Columns)
	}
	if det.Version == "" || det.Generation == 0 || det.Bytes <= 0 {
		t.Errorf("version/generation/bytes not populated: %+v", det)
	}

	resp, body = getJSON(t, ts.URL+"/v1/tables")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
	var list struct {
		Tables []engine.TableDetail `json:"tables"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Tables) != 1 {
		t.Fatalf("list = %+v", list.Tables)
	}
	if got := list.Tables[0]; got.Name != det.Name || got.Bytes != det.Bytes || len(got.Columns) != 4 {
		t.Errorf("list entry %+v != detail %+v", got, det)
	}
}

// TestPprofGating: the pprof surface only mounts behind -pprof.
func TestPprofGating(t *testing.T) {
	e := engine.New(engine.Options{Workers: 2})
	off := httptest.NewServer(newMux(e, muxConfig{}))
	defer off.Close()
	if resp, _ := getJSON(t, off.URL+"/debug/pprof/"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", resp.StatusCode)
	}
	e2 := engine.New(engine.Options{Workers: 2})
	on := httptest.NewServer(newMux(e2, muxConfig{pprof: true}))
	defer on.Close()
	if resp, _ := getJSON(t, on.URL+"/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Errorf("pprof on: status %d, want 200", resp.StatusCode)
	}
}
