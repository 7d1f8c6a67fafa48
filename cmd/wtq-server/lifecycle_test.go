package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"nlexplain/internal/engine"
)

// TestTableLifecycleEndpoints walks the full table lifecycle on the
// wire: register, query, PATCH-append (version and generation move,
// stale cache purged), DELETE, and 404s afterwards.
func TestTableLifecycleEndpoints(t *testing.T) {
	ts, e := newTestServer(t)
	registerOlympics(t, ts)

	explain := func() (string, string) {
		resp, body := postJSON(t, ts.URL+"/v1/explain", map[string]string{"table": "olympics", "query": "count(Record)"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("explain: status %d: %s", resp.StatusCode, body)
		}
		var got struct {
			Version string `json:"version"`
			Result  string `json:"result"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		return got.Version, got.Result
	}
	v1, res := explain()
	if res != "6" {
		t.Fatalf("pre-append result %q, want 6", res)
	}

	resp, body := doJSON(t, http.MethodPatch, ts.URL+"/v1/tables/olympics", map[string]any{
		"rows": [][]string{{"2016", "Rio", "Brazil", "207"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patch: status %d: %s", resp.StatusCode, body)
	}
	var info engine.TableInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Rows != 7 || info.Version == v1 || info.Generation == 0 {
		t.Fatalf("patch info = %+v (old version %s)", info, v1)
	}
	if n := counter(t, e, "engine.cache.result.size"); n != 0 {
		t.Fatalf("result cache holds %d entries after PATCH, want 0 (stale purge)", n)
	}
	v2, res := explain()
	if res != "7" || v2 != info.Version {
		t.Fatalf("post-append explain = (%s, %s), want (%s, 7)", v2, res, info.Version)
	}

	// PATCH error paths: unknown table, ragged rows, empty rows.
	if resp, _ := doJSON(t, http.MethodPatch, ts.URL+"/v1/tables/nope", map[string]any{"rows": [][]string{{"a", "b", "c", "d"}}}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("patch unknown table: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodPatch, ts.URL+"/v1/tables/olympics", map[string]any{"rows": [][]string{{"short"}}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("patch ragged rows: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodPatch, ts.URL+"/v1/tables/olympics", map[string]any{"rows": [][]string{}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("patch empty rows: status %d, want 400", resp.StatusCode)
	}

	// DELETE, then everything 404s.
	resp, body = doJSON(t, http.MethodDelete, ts.URL+"/v1/tables/olympics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d: %s", resp.StatusCode, body)
	}
	var dropped struct {
		Dropped engine.TableInfo `json:"dropped"`
	}
	if err := json.Unmarshal(body, &dropped); err != nil {
		t.Fatal(err)
	}
	if dropped.Dropped.Name != "olympics" {
		t.Fatalf("dropped = %+v", dropped)
	}
	if resp, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/tables/olympics", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("second delete: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/explain", map[string]string{"table": "olympics", "query": "count(Record)"}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("explain after delete: status %d, want 404", resp.StatusCode)
	}
}

// TestRegisterTablePayloadCap checks the MaxBytesReader hardening: a
// table payload over the configured cap draws 413 with the JSON error
// body, on both POST and PATCH.
func TestRegisterTablePayloadCap(t *testing.T) {
	ts, _ := newTestServerCapped(t, 1024)
	registerOlympicsSmall := func() {
		resp, body := postJSON(t, ts.URL+"/v1/tables", map[string]any{
			"name":    "small",
			"columns": []string{"A"},
			"rows":    [][]string{{"1"}},
		})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("small register under cap: status %d: %s", resp.StatusCode, body)
		}
	}
	registerOlympicsSmall()

	big := strings.Repeat("x", 4096)
	resp, body := postJSON(t, ts.URL+"/v1/tables", map[string]any{
		"name":    "big",
		"columns": []string{"A"},
		"rows":    [][]string{{big}},
	})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize register: status %d, want 413 (%s)", resp.StatusCode, body)
	}
	var errBody struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &errBody); err != nil || errBody.Error.Message == "" {
		t.Fatalf("413 body is not the JSON error shape: %s (%v)", body, err)
	}
	if errBody.Error.Code != "too_large" {
		t.Fatalf("413 code = %q, want too_large", errBody.Error.Code)
	}

	if resp, _ := doJSON(t, http.MethodPatch, ts.URL+"/v1/tables/small", map[string]any{"rows": [][]string{{big}}}); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize patch: status %d, want 413", resp.StatusCode)
	}
}

// TestRegisterTableBadPayloads covers the 400 paths the register
// endpoint must reject cleanly: duplicate columns and ragged rows, in
// both the rows and CSV payload forms.
func TestRegisterTableBadPayloads(t *testing.T) {
	ts, _ := newTestServer(t)

	cases := []struct {
		name    string
		payload map[string]any
	}{
		{"dup columns", map[string]any{"name": "t", "columns": []string{"A", "a"}, "rows": [][]string{{"1", "2"}}}},
		{"ragged rows", map[string]any{"name": "t", "columns": []string{"A", "B"}, "rows": [][]string{{"1"}}}},
		{"dup csv columns", map[string]any{"name": "t", "csv": "A,a\n1,2\n"}},
		{"ragged csv", map[string]any{"name": "t", "csv": "A,B\n1\n"}},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/tables", tc.payload)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
			continue
		}
		var errBody struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &errBody); err != nil || errBody.Error.Message == "" {
			t.Errorf("%s: body is not the JSON error shape: %s", tc.name, body)
		} else if errBody.Error.Code != "bad_request" {
			t.Errorf("%s: code = %q, want bad_request", tc.name, errBody.Error.Code)
		}
	}
}
