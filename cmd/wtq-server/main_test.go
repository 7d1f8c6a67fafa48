package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"nlexplain"
	"nlexplain/internal/metric"
)

func newTestServer(t *testing.T) (*httptest.Server, *nlexplain.Engine) {
	t.Helper()
	return newTestServerCapped(t, 0)
}

// newTestServerCapped builds a test server with an explicit table
// payload cap (0 = the default 8 MiB).
func newTestServerCapped(t *testing.T, maxTableBytes int64) (*httptest.Server, *nlexplain.Engine) {
	t.Helper()
	e := nlexplain.NewEngine(nlexplain.EngineOptions{Workers: 4})
	ts := httptest.NewServer(newMux(e, muxConfig{maxTableBytes: maxTableBytes}))
	t.Cleanup(ts.Close)
	return ts, e
}

// counter reads one counter or gauge off the engine's registry by its
// canonical dotted name: the value GET /metrics serves under the same
// name with underscores.
func counter(t testing.TB, e *nlexplain.Engine, name string) uint64 {
	t.Helper()
	m, _ := e.Metrics().Get(name)
	switch v := m.(type) {
	case *metric.Counter:
		return v.Count()
	case *metric.CounterFunc:
		return v.Count()
	case *metric.GaugeFunc:
		return uint64(v.Value())
	}
	t.Fatalf("registry has no counter or gauge %q", name)
	return 0
}

// rawBody is a request body doJSON sends as it is, not marshalled.
type rawBody string

// doJSON issues a request with an arbitrary method (PATCH, DELETE)
// and a JSON body: body marshalled, or sent verbatim if a rawBody.
func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case rawBody:
		rd = bytes.NewReader([]byte(b))
	default:
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func registerOlympics(t *testing.T, ts *httptest.Server) {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/tables", map[string]any{
		"name":    "olympics",
		"columns": []string{"Year", "City", "Country", "Nations"},
		"rows": [][]string{
			{"1896", "Athens", "Greece", "14"},
			{"1900", "Paris", "France", "24"},
			{"1904", "St. Louis", "USA", "12"},
			{"2004", "Athens", "Greece", "201"},
			{"2008", "Beijing", "China", "204"},
			{"2012", "London", "UK", "204"},
		},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d: %s", resp.StatusCode, body)
	}
}

func TestRegisterTableEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	registerOlympics(t, ts)

	resp, body := getJSON(t, ts.URL+"/v1/tables")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	var list struct {
		Tables []nlexplain.TableInfo `json:"tables"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Tables) != 1 || list.Tables[0].Name != "olympics" || list.Tables[0].Rows != 6 {
		t.Errorf("tables = %+v", list.Tables)
	}

	// CSV payload path.
	resp, body = postJSON(t, ts.URL+"/v1/tables", map[string]any{
		"name": "medals",
		"csv":  "Country,Gold\nGreece,4\nFrance,5\n",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("csv register: status %d: %s", resp.StatusCode, body)
	}

	// Bad payloads.
	if resp, _ = postJSON(t, ts.URL+"/v1/tables", map[string]any{"columns": []string{"A"}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing name: status %d", resp.StatusCode)
	}
	if resp, _ = postJSON(t, ts.URL+"/v1/tables", map[string]any{"name": "x", "columns": []string{"A"}, "rows": [][]string{{"1", "2"}}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("ragged rows: status %d", resp.StatusCode)
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	registerOlympics(t, ts)

	resp, body := postJSON(t, ts.URL+"/v1/explain", map[string]any{
		"table": "olympics",
		"query": "max(R[Year].Country.Greece)",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Query     string `json:"query"`
		Utterance string `json:"utterance"`
		SQL       string `json:"sql"`
		Result    string `json:"result"`
		Cached    bool   `json:"cached"`
		Grid      struct {
			Headers []string `json:"headers"`
			Cells   [][]struct {
				Text    string `json:"text"`
				Marking string `json:"marking"`
			} `json:"cells"`
		} `json:"grid"`
		Provenance struct {
			Output      []map[string]int  `json:"output"`
			Execution   []map[string]int  `json:"execution"`
			Columns     []map[string]int  `json:"columns"`
			HeaderAggrs map[string]string `json:"header_aggrs"`
		} `json:"provenance"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	if out.Result != "2004" {
		t.Errorf("result = %q, want 2004", out.Result)
	}
	if out.Utterance == "" {
		t.Error("empty utterance")
	}
	if out.Cached {
		t.Error("first explain should not be cached")
	}
	if len(out.Provenance.Output) == 0 || len(out.Provenance.Execution) == 0 || len(out.Provenance.Columns) == 0 {
		t.Errorf("provenance incomplete: %+v", out.Provenance)
	}
	if out.Provenance.HeaderAggrs["Year"] != "max" {
		t.Errorf("header aggrs = %v", out.Provenance.HeaderAggrs)
	}
	marked := 0
	for _, row := range out.Grid.Cells {
		for _, c := range row {
			if c.Marking != "" {
				marked++
			}
		}
	}
	if marked == 0 {
		t.Error("no highlighted cells on the wire")
	}

	// Second identical request is a cache hit.
	resp, body = postJSON(t, ts.URL+"/v1/explain", map[string]any{
		"table": "olympics",
		"query": "max(R[Year].Country.Greece)",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Error("repeat explain should be cached")
	}

	// Error statuses.
	if resp, _ = postJSON(t, ts.URL+"/v1/explain", map[string]any{"table": "nope", "query": "count(City.Athens)"}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown table: status %d, want 404", resp.StatusCode)
	}
	if resp, _ = postJSON(t, ts.URL+"/v1/explain", map[string]any{"table": "olympics", "query": "max(((("}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query: status %d, want 400", resp.StatusCode)
	}
	// A query whose text merely contains "unknown table" is a parse
	// error on an existing table: 400, not 404.
	if resp, _ = postJSON(t, ts.URL+"/v1/explain", map[string]any{"table": "olympics", "query": "unknown table"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("query containing 'unknown table': status %d, want 400", resp.StatusCode)
	}
}

// TestAnswerEndpoint covers the answer-only fast path on the wire:
// denotation without provenance, cache marking on repeat, and error
// mapping.
func TestAnswerEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	registerOlympics(t, ts)

	req := map[string]string{"table": "olympics", "query": "max(R[Year].Country.Greece)"}
	resp, body := postJSON(t, ts.URL+"/v1/answer", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got struct {
		Table  string `json:"table"`
		Query  string `json:"query"`
		Result string `json:"result"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if got.Result != "2004" {
		t.Fatalf("answer = %q, want 2004 (body %s)", got.Result, body)
	}
	if got.Cached {
		t.Fatal("first answer must not be marked cached")
	}
	if strings.Contains(string(body), "provenance") {
		t.Fatalf("answer endpoint must not carry provenance: %s", body)
	}

	resp, body = postJSON(t, ts.URL+"/v1/answer", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Cached {
		t.Fatal("repeat answer must be served from the answer cache")
	}

	if resp, _ := postJSON(t, ts.URL+"/v1/answer", map[string]string{"table": "nope", "query": "count(Record)"}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown table status %d, want 404", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/answer", map[string]string{"table": "olympics", "query": "max("}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed query status %d, want 400", resp.StatusCode)
	}
}

// TestBatchHugeTimeoutIsTheCap: a timeout_ms whose nanoseconds
// overflow a time.Duration is a budget past the engine's cap, or for a
// negative one the default, not the 64 ns the wrapped product reads as,
// so a cold scan of a 70 000-row table completes.
func TestBatchHugeTimeoutIsTheCap(t *testing.T) {
	ts, e := newTestServer(t)
	rows := make([][]string, 70000)
	for i := range rows {
		rows[i] = []string{strconv.Itoa(i), strconv.Itoa(i % 97)}
	}
	if _, err := e.RegisterRaw("big", []string{"Id", "Games"}, rows); err != nil {
		t.Fatal(err)
	}
	for i, ms := range []int64{76480200929599801, 76480200929599801 - 1<<58} {
		resp, body := postJSON(t, ts.URL+"/v1/explain/batch", map[string]any{
			"queries":    []map[string]string{{"table": "big", "query": fmt.Sprintf("count(Games>%d)", 95-i)}},
			"timeout_ms": ms,
		})
		var out struct{ Errors int }
		if err := json.Unmarshal(body, &out); err != nil || resp.StatusCode != http.StatusOK || out.Errors != 0 {
			t.Fatalf("timeout_ms %d: status %d: %.300s", ms, resp.StatusCode, body)
		}
	}
}

func TestExplainBatchEndpoint(t *testing.T) {
	ts, e := newTestServer(t)
	registerOlympics(t, ts)

	queries := []map[string]any{
		{"table": "olympics", "query": "max(R[Year].Country.Greece)"},
		{"table": "olympics", "query": "min(R[Year].Record)"},
		{"table": "olympics", "query": "count(Country.Greece)"},
		{"table": "olympics", "query": "sum(R[Nations].Record)"},
		{"table": "olympics", "query": "avg(R[Nations].Record)"},
		{"table": "olympics", "query": "max(R[Year].Record)"},
		{"table": "olympics", "query": "count(City.Athens)"},
		{"table": "olympics", "query": "min(R[Nations].Country.USA)"},
	}
	resp, body := postJSON(t, ts.URL+"/v1/explain/batch", map[string]any{"queries": queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Results []struct {
			Explanation *struct {
				Query  string `json:"query"`
				Result string `json:"result"`
			} `json:"explanation"`
			Cached bool   `json:"cached"`
			Error  string `json:"error"`
		} `json:"results"`
		Errors int `json:"errors"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(queries) || out.Errors != 0 {
		t.Fatalf("results = %d (errors %d), want %d/0: %s", len(out.Results), out.Errors, len(queries), body)
	}
	for i, r := range out.Results {
		if r.Explanation == nil || r.Explanation.Result == "" {
			t.Errorf("result %d empty: %+v", i, r)
		}
	}

	// Repeat the batch: every result must come from cache and the
	// engine must report hits.
	resp, body = postJSON(t, ts.URL+"/v1/explain/batch", map[string]any{"queries": queries})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Results {
		if !r.Cached {
			t.Errorf("repeat result %d not cached", i)
		}
	}
	if counter(t, e, "engine.cache.result.hits") == 0 {
		t.Error("engine reports no cache hits after repeated batch")
	}

	// A batch mixing good and bad queries reports per-item errors.
	mixed := append(queries[:2:2], map[string]any{"table": "olympics", "query": "max(((("})
	resp, body = postJSON(t, ts.URL+"/v1/explain/batch", map[string]any{"queries": mixed})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Errors != 1 || out.Results[2].Error == "" {
		t.Errorf("mixed batch errors = %d, item err %q", out.Errors, out.Results[2].Error)
	}

	if resp, _ = postJSON(t, ts.URL+"/v1/explain/batch", map[string]any{"queries": []any{}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", resp.StatusCode)
	}
}

func TestParseEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	registerOlympics(t, ts)

	resp, body := postJSON(t, ts.URL+"/v1/parse", map[string]any{
		"table":    "olympics",
		"question": "in which year were the olympics held in Athens?",
		"top_k":    5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Question   string                      `json:"question"`
		Candidates []nlexplain.RankedCandidate `json:"candidates"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Candidates) == 0 || len(out.Candidates) > 5 {
		t.Fatalf("candidates = %d, want 1..5", len(out.Candidates))
	}
	for i, c := range out.Candidates {
		if c.Rank != i+1 || c.Query == "" || c.Utterance == "" {
			t.Errorf("candidate %d malformed: %+v", i, c)
		}
	}

	if resp, _ = postJSON(t, ts.URL+"/v1/parse", map[string]any{"table": "nope", "question": "hi"}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown table: status %d, want 404", resp.StatusCode)
	}
}

func TestHealthzAndStats(t *testing.T) {
	ts, e := newTestServer(t)
	registerOlympics(t, ts)

	resp, body := getJSON(t, ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var health struct {
		Status string `json:"status"`
		Tables int    `json:"tables"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Tables != 1 {
		t.Errorf("healthz = %+v", health)
	}

	postJSON(t, ts.URL+"/v1/explain", map[string]any{"table": "olympics", "query": "count(City.Athens)"})
	if tables, execs := counter(t, e, "store.tables"), counter(t, e, "engine.executions"); tables != 1 || execs == 0 {
		t.Errorf("store.tables = %d, engine.executions = %d, want 1 and > 0", tables, execs)
	}
}

func TestConcurrentExplainRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	registerOlympics(t, ts)

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := range 32 {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := []string{"max(R[Year].Record)", "count(City.Athens)", "sum(R[Nations].Record)", "min(R[Year].Country.Greece)"}[i%4]
			resp, body := postJSON(t, ts.URL+"/v1/explain", map[string]any{"table": "olympics", "query": q})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("query %q: status %d: %s", q, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/explain")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/explain: status %d, want 405", resp.StatusCode)
	}
}
