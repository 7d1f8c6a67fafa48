package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nlexplain/internal/dcs"
	"nlexplain/internal/engine"
)

// knownCodes are the envelope codes a request body can lead to. A
// deadline, a cancellation, a shed or a degraded store needs more than
// a body, and internal is a contained panic, which no body may cause.
var knownCodes = map[string]bool{
	codeBadRequest: true, codeUnknownTable: true, codeTooLarge: true,
	codeQueryTooDeep: true, codeQueryTooLong: true, codeBatchTooLarge: true,
}

// FuzzRequestBodies sends each input as the body of every POST
// endpoint, through the mux, to an in-memory engine holding the demo
// table. Each response is a 2xx with a JSON body, or a 4xx with the
// error envelope and a known code: never a 5xx, never a panic.
func FuzzRequestBodies(f *testing.F) {
	paths := []string{"/v1/tables", "/v1/explain", "/v1/explain/batch", "/v1/answer", "/v1/parse"}
	q := func(query string) string {
		b, _ := json.Marshal(map[string]string{"table": "olympics", "query": query})
		return string(b)
	}
	batch := strings.Repeat(q("count(City.Athens)")+",", maxBatchQueries) + q("count(City.Athens)")
	for _, seed := range []string{
		`{"name":"lakes","csv":"Lake,Ships\nHuron,3\nErie,1\n"}`,
		`{"name":"lakes","columns":["Lake"],"rows":[["Huron"],["Erie"]]}`,
		q("max(R[Year].Country.Greece)"),
		q("sum(R[City].Country.Greece)"),
		`{"queries":[` + q("count(City.Athens)") + `,{"table":"nope","query":"x"}],"timeout_ms":5}`,
		`{"table":"olympics","question":"Greece held its last Olympics in what year?","top_k":3}`,
		q(strings.Repeat("count(", dcs.MaxDepth) + "City.Athens" + strings.Repeat(")", dcs.MaxDepth)),
		q("City.Athens" + strings.Repeat(" ", dcs.MaxQueryBytes)),
		`{"queries":[` + batch + `]}`,
		`{"queries":[` + q(strings.Repeat("(", dcs.MaxQueryBytes+1)) + `]}`,
		`{"table":"olympics","query":"City.Athens"}xyz`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		e := engine.New(engine.Options{Workers: 1})
		if err := demoTable(e); err != nil {
			t.Fatal(err)
		}
		mux := newMux(e, muxConfig{})
		for _, path := range paths {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if err := checkResponse(rec); err != nil {
				t.Errorf("POST %s %.200q: %v", path, body, err)
			}
		}
	})
}

// checkResponse holds one response to FuzzRequestBodies' contract.
func checkResponse(rec *httptest.ResponseRecorder) error {
	body := rec.Body.Bytes()
	if rec.Code >= 200 && rec.Code < 300 {
		if !json.Valid(body) {
			return fmt.Errorf("status %d with a body that is not JSON: %.200q", rec.Code, body)
		}
		return nil
	}
	var env errorBody
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return fmt.Errorf("status %d, body not an error envelope (%v): %.200q", rec.Code, err, body)
	}
	if rec.Code >= 500 || !knownCodes[env.Error.Code] || env.Error.Message == "" {
		return fmt.Errorf("status %d, code %q, message %q", rec.Code, env.Error.Code, env.Error.Message)
	}
	return nil
}
