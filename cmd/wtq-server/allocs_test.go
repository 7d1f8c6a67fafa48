package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nlexplain"
)

// TestExplainHandlerAllocs pins the allocations of one cached
// /v1/explain and one cached two-query /v1/explain/batch through the
// whole mux: request decode, cache probe and response encode, plus the
// recorder and request the test builds per call. Every query is a
// cache hit, so the count is the HTTP layer's and not the pipeline's
// (TestExplainMissAllocs in internal/engine counts that). No -race: it
// skips itself; make parse-footprint runs it.
func TestExplainHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector")
	}
	e := nlexplain.NewEngine(nlexplain.EngineOptions{Workers: 1})
	if err := demoTable(e); err != nil {
		t.Fatal(err)
	}
	mux := newMux(e, muxConfig{})
	for _, tc := range []struct {
		name, url, body string
		bound           float64
	}{
		// measured 31 / 46; 35 / 53 through encoding/json's indenting encoder
		{"explain", "/v1/explain", `{"table":"olympics","query":"max(R[Year].Country.Greece)"}`, 31},
		{"batch", "/v1/explain/batch", `{"queries":[{"table":"olympics","query":"max(R[Year].Country.Greece)"},{"table":"olympics","query":"count(City.Athens)"}]}`, 46},
	} {
		serve := func() {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.url, strings.NewReader(tc.body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body)
			}
		}
		serve() // fill the result cache and the response buffer pool
		allocs := testing.AllocsPerRun(100, serve)
		t.Logf("%-7s %.0f allocations per request", tc.name, allocs)
		if allocs > tc.bound {
			t.Errorf("%s: a cached request makes %.0f allocations, want at most %.0f", tc.name, allocs, tc.bound)
		}
	}
}
