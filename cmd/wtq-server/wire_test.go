package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"nlexplain/internal/dcs"
	"nlexplain/internal/engine"
)

// TestServerWireGolden pins what the handlers put on the wire: for each
// request, a SHA-256 of the status, the Content-Type, the Retry-After
// and the body, over a fresh server, in order. The error classes no
// request reaches deterministically (a deadline, a cancellation, a shed,
// a degraded store, a contained panic) go through writePipelineError,
// the one function every handler writes them with. The failure message
// prints the new value.
func TestServerWireGolden(t *testing.T) {
	ts, _ := newTestServer(t)
	capped, _ := newTestServerCapped(t, 64)
	olympics := map[string]any{
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
	}
	explain := map[string]string{"table": "olympics", "query": "max(R[Year].Country.Greece)"}
	cases := []struct {
		name, method, url string
		body              any
	}{
		{"register", http.MethodPost, ts.URL + "/v1/tables", olympics},
		{"register-csv", http.MethodPost, ts.URL + "/v1/tables", map[string]string{"name": "lakes", "csv": "Lake,Ships\nHuron,3\nErie,1\n"}},
		{"explain-miss", http.MethodPost, ts.URL + "/v1/explain", explain},
		{"explain-hit", http.MethodPost, ts.URL + "/v1/explain", explain},
		{"explain-prev", http.MethodPost, ts.URL + "/v1/explain", map[string]string{"table": "olympics", "query": "R[City].Prev.City.London"}},
		{"batch", http.MethodPost, ts.URL + "/v1/explain/batch", map[string]any{"queries": []map[string]string{
			explain,
			{"table": "olympics", "query": "count(City.Athens)"},
			{"table": "olympics", "query": "sum(R[City].Country.Greece)"},
			{"table": "nope", "query": "count(City.Athens)"},
			{"table": "lakes", "query": "R[Ships].Lake.Huron"},
		}}},
		{"answer", http.MethodPost, ts.URL + "/v1/answer", explain},
		{"answer-hit", http.MethodPost, ts.URL + "/v1/answer", explain},
		{"parse", http.MethodPost, ts.URL + "/v1/parse", map[string]any{"table": "olympics", "question": "Greece held its last Olympics in what year?", "top_k": 3}},
		{"append", http.MethodPatch, ts.URL + "/v1/tables/olympics", map[string]any{"rows": [][]string{{"2016", "Rio de Janeiro", "Brazil", "207"}}}},
		{"explain-after-append", http.MethodPost, ts.URL + "/v1/explain", explain},
		{"drop", http.MethodDelete, ts.URL + "/v1/tables/lakes", nil},
		{"healthz", http.MethodGet, ts.URL + "/v1/healthz", nil},

		{"error-bad-query", http.MethodPost, ts.URL + "/v1/explain", map[string]string{"table": "olympics", "query": "not a query"}},
		{"error-runtime", http.MethodPost, ts.URL + "/v1/explain", map[string]string{"table": "olympics", "query": "sum(R[City].Country.Greece)"}},
		{"error-answer-runtime", http.MethodPost, ts.URL + "/v1/answer", map[string]string{"table": "olympics", "query": "sub(max(R[Year].Country.Atlantis), 1)"}},
		{"error-malformed", http.MethodPost, ts.URL + "/v1/answer", "not an object"},
		{"error-unknown-field", http.MethodPost, ts.URL + "/v1/explain", map[string]string{"table": "olympics", "query": "count(City.Athens)", "extra": "x"}},
		{"error-empty-batch", http.MethodPost, ts.URL + "/v1/explain/batch", map[string]any{"queries": []any{}}},
		{"error-no-name", http.MethodPost, ts.URL + "/v1/tables", map[string]any{"columns": []string{"A"}}},
		{"error-no-rows", http.MethodPatch, ts.URL + "/v1/tables/olympics", map[string]any{"rows": [][]string{}}},
		{"error-unknown-explain", http.MethodPost, ts.URL + "/v1/explain", map[string]string{"table": "nope", "query": "count(City.Athens)"}},
		{"error-unknown-parse", http.MethodPost, ts.URL + "/v1/parse", map[string]any{"table": "nope", "question": "which year?"}},
		{"error-unknown-get", http.MethodGet, ts.URL + "/v1/tables/nope", nil},
		{"error-unknown-append", http.MethodPatch, ts.URL + "/v1/tables/nope", map[string]any{"rows": [][]string{{"1"}}}},
		{"error-unknown-drop", http.MethodDelete, ts.URL + "/v1/tables/nope", nil},
		{"error-too-large", http.MethodPost, capped.URL + "/v1/tables", olympics},
		// A body is one JSON value: trailing whitespace is accepted,
		// anything else after the value refused.
		{"explain-trailing-space", http.MethodPost, ts.URL + "/v1/explain", rawBody(`{"table":"olympics","query":"count(City.Athens)"}` + " \n\t\r\n")},
		{"error-trailing-garbage", http.MethodPost, ts.URL + "/v1/explain", rawBody(`{"table":"olympics","query":"City.Athens"}xyz`)},
		{"error-trailing-value", http.MethodPost, ts.URL + "/v1/tables", rawBody(`{"name":"lakes","csv":"Lake\nErie\n"}{"name":"ponds","csv":"Pond\nWalden\n"}`)},
		// A table is registered from csv or from columns and rows; a
		// request with both is refused, and registers nothing.
		{"error-csv-and-rows", http.MethodPost, ts.URL + "/v1/tables", map[string]any{"name": "ponds", "csv": "Pond\nWalden\n", "columns": []string{"Pond"}, "rows": [][]string{{"Walden"}}}},
		{"tables-after-trailing", http.MethodGet, ts.URL + "/v1/tables", nil},
		// A query nested past dcs.MaxDepth is refused with a code of its
		// own. The message quotes the 1.4 KB query's first
		// dcs.MaxQuoted bytes and "…", then the reason.
		{"error-too-deep", http.MethodPost, ts.URL + "/v1/explain", map[string]string{"table": "olympics", "query": strings.Repeat("count(", 2*dcs.MaxDepth) + "City.Athens" + strings.Repeat(")", 2*dcs.MaxDepth)}},
		// A query longer than dcs.MaxQueryBytes, and a batch of more
		// than maxBatchQueries queries, are refused with codes of their
		// own.
		{"error-too-long", http.MethodPost, ts.URL + "/v1/explain", map[string]string{"table": "olympics", "query": "City.Athens" + strings.Repeat(" ", dcs.MaxQueryBytes)}},
		{"error-batch-too-large", http.MethodPost, ts.URL + "/v1/explain/batch", map[string]any{"queries": slices.Repeat([]map[string]string{explain}, maxBatchQueries+1)}},
	}
	got := make(map[string]string)
	for _, tc := range cases {
		resp, body := doJSON(t, tc.method, tc.url, tc.body)
		got[tc.name] = wireHash(resp.StatusCode, resp.Header, body)
	}
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"error-deadline", context.DeadlineExceeded},
		{"error-canceled", context.Canceled},
		{"error-overloaded", engine.ErrOverloaded},
		{"error-unavailable", engine.ErrUnavailable},
		{"error-internal", engine.ErrInternal},
	} {
		rec := httptest.NewRecorder()
		writePipelineError(rec, fmt.Errorf("explaining count(City.Athens) on olympics: %w", tc.err))
		got[tc.name] = wireHash(rec.Code, rec.Header(), rec.Body.Bytes())
	}
	for name, want := range serverWireGolden {
		if got[name] != want {
			t.Errorf("%s: wire hashes to %s, golden %s", name, got[name], want)
		}
	}
	for name, sum := range got {
		if _, ok := serverWireGolden[name]; !ok {
			t.Errorf("%s: wire hashes to %s, no golden", name, sum)
		}
	}
}

// wireHash is the SHA-256 of one response as a client sees it.
func wireHash(status int, h http.Header, body []byte) string {
	sum := sha256.New()
	fmt.Fprintf(sum, "%d\n%s\n%s\n", status, h.Get("Content-Type"), h.Get("Retry-After"))
	sum.Write(body)
	return hex.EncodeToString(sum.Sum(nil))
}

// serverWireGolden holds the SHA-256 of every response
// TestServerWireGolden makes.
var serverWireGolden = map[string]string{
	"register":               "fdec0280988861b734622ec254eaa4e9b2aab9356ef74c85d85531c2481b3a39",
	"register-csv":           "3fccede23b282ab77b714331e8dcad22503dfc453e22de3756a050453a6b3e15",
	"explain-miss":           "abb11f9e525766f78052b9f6c7a97c4b9de1af1bc75616c1abd39e4b959c3fff",
	"explain-hit":            "35137653af41b1e5dc762c5866b477b63676e7e875a873f7aa1ab12af99c0e70",
	"explain-prev":           "ac6ffb6165ca1584c9d8fccc8d86a41697dd034b9cd0334e7cdc2746cbbe4455",
	"batch":                  "fa5b5f11a7cd3884b1f2f6a4d9c364df3966ace09a05e9fbea5a8219c8a56379",
	"answer":                 "62ae6d94ac0bf6b0574cb1cb66f1802e2165a0b326a63c212488abb1db8bc928",
	"answer-hit":             "e41c5a1553a4c929e4d6e4ecd8b677b6fbfbacb5e4ffc3569a146d83b4bb1852",
	"parse":                  "b70ee7383d18a133953dda282292fbd740e8cfbe7827fffa495300b1ccec11c8",
	"append":                 "1fcd0f873005b331e95850c059fb4413392c47f36ed50b4421d82069374d30ec",
	"explain-after-append":   "7fbda1f516bc0b9594252581249055347b4751887dd1ff30a53637cdd50054db",
	"drop":                   "bd96703897a4fb90a74b2e8295b6da4aca8d345a76838d20b1dbad117d76b5a7",
	"healthz":                "fb27421f41a2ec93e512078868b604fc9ae97da1ad540cfb2c0e9d1b58473676",
	"error-bad-query":        "e61e567b07844fc0dc3eb10e61341002816bf6869d47313428869c295b8b466a",
	"error-runtime":          "7efd1c565ef7f7d0cfe4267d56eeb72ab1dac61e34b2644ab132ab21e9df16b5",
	"error-answer-runtime":   "9a24b2de887b6d6081b2cbd9d188507d98e4d992ec5ba18bef11f734f7bce67e",
	"error-malformed":        "93236801a757c0968688fa77e2e2832cf36fb00948ff06606a58c587923fbab4",
	"error-unknown-field":    "117ab0b8bf452df5d54db8c56f967793d589962ed2452af3244e58c1cf250e3a",
	"error-empty-batch":      "355c7504a5f4cf7838221ee87bc4dc41e274bfbd5d4ed62a514943f5e50be00d",
	"error-no-name":          "10d2f9569d4a4b43505676790766c864ca71bcde7caf5290ced95f642458e407",
	"error-no-rows":          "3150170c69d72f93ae63bb26c929e59eaef8a937f1698379e7a3fc0a9d5a649e",
	"error-unknown-explain":  "031463448a2d207c120f3f2bc4ca1cfa6ff056d560e95d7dbac6a3e4cba7f80e",
	"error-unknown-parse":    "031463448a2d207c120f3f2bc4ca1cfa6ff056d560e95d7dbac6a3e4cba7f80e",
	"error-unknown-get":      "031463448a2d207c120f3f2bc4ca1cfa6ff056d560e95d7dbac6a3e4cba7f80e",
	"error-unknown-append":   "ddaec270cbb325b7abe85f29f4ddd2123b303a722e3480b1e970a81b299d2bd6",
	"error-unknown-drop":     "031463448a2d207c120f3f2bc4ca1cfa6ff056d560e95d7dbac6a3e4cba7f80e",
	"error-too-large":        "e92878e8d0e76fb29fd7fd73094ca49143e6f5f106295089e1f3cdc4947c548f",
	"explain-trailing-space": "fd2646a4f2b6e2b252815b71e3a7f4070194d77302f4cbbdaa11f46a406fde46",
	"error-trailing-garbage": "2bc8a8e422688de50223349e3d1a116b38991bd3fd9b1a9dfa1cc06979ab160d",
	"error-trailing-value":   "2bc8a8e422688de50223349e3d1a116b38991bd3fd9b1a9dfa1cc06979ab160d",
	"error-csv-and-rows":     "20bc96a54118f6f3a417addf3afa4468d601b9d1e357db796a91886fa4ab938f",
	"tables-after-trailing":  "9b38b274045d80699992c0ff0703743300e47911bf17fef710877d09f7bbd464",
	"error-too-deep":         "2e1508a2085281c3f9cb57df36c450391e0e9e8266687d592d1101aee9e88e8f",
	"error-too-long":         "c18fa5ed5e4edf2bba8f969eadc9b4e1b7af61fe8e3a04de3ea81524b5f2701e",
	"error-batch-too-large":  "49544a63cb1cf1fd664df3a2ff6e97cf43711b6b2a21ce2629c80efd670aab08",
	"error-deadline":         "a9a2051e9bfb404f27e3221f7346aa794ad7f4f4d5cd34e85a04810a401e7b06",
	"error-canceled":         "27dca80ee4e86fb3c756d46a62b9acb9ffc65a2054b12532810b60a118ecfc4d",
	"error-overloaded":       "807d4733e61199c59a6609f36da56ac71dcd90053538d2867f8ad1bc8616f67f",
	"error-unavailable":      "178cc033c9b0c02f60c117c3bd71e90aaf7eb9e288ccedf2618c70589bae39cb",
	"error-internal":         "17a17e6a5cf364a36060795b74fca59f2a65fee8f1261d0ddcfd505964ea7de7",
}
