package main

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"nlexplain"
	"nlexplain/internal/workload"
)

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

// TestWorkloadHTTPTarget drives the full workload harness against a
// live httptest wtq-server: the mixed traffic must flow over the wire
// and move the engine's counters.
func TestWorkloadHTTPTarget(t *testing.T) {
	ts, e := newTestServer(t)

	mix, ok := workload.MixByName("mixed")
	if !ok {
		t.Fatal("mixed mix missing")
	}
	corpus, ops := workload.Generate(1, mix, 64)
	tgt := workload.NewHTTPTarget(ts.URL)
	defer tgt.Close()

	rep, err := workload.Run(context.Background(), tgt, corpus, ops, workload.Options{
		Workers: 4, MaxOps: 128,
	})
	if err != nil {
		t.Fatalf("Run over HTTP: %v", err)
	}
	if rep.TotalOps != 128 {
		t.Fatalf("TotalOps = %d, want 128", rep.TotalOps)
	}
	if rep.Counts[workload.ClassTransport] != 0 {
		t.Fatalf("transport errors against httptest server: %v", rep.Counts)
	}
	if rep.Counts[workload.ClassInternal] != 0 {
		t.Fatalf("internal errors: %v", rep.Counts)
	}
	// The mixed stream carries deliberate malformed/unknown queries;
	// everything else must succeed.
	if rep.Counts[workload.ClassOK] == 0 || rep.Counts[workload.ClassOK]+rep.Counts[workload.ClassClientError] != rep.TotalOps {
		t.Fatalf("unexpected class distribution: %v", rep.Counts)
	}
	if counter(t, e, "engine.executions") == 0 {
		t.Fatal("engine.executions = 0 after a mixed run over HTTP")
	}
	if rep.Cached == 0 {
		t.Fatalf("no op reported cached over HTTP: %v", rep.Counts)
	}
}

// TestWorkloadHTTPMatchesInProc pins the two targets to the same
// generated op stream and requires identical deterministic outcome
// classes (ok vs client error) op for op: the explain mix, where every
// op is ok, and the mixed mix with its malformed, batch, parse and
// churn families.
func TestWorkloadHTTPMatchesInProc(t *testing.T) {
	for _, name := range []string{"explain", "mixed"} {
		t.Run(name, func(t *testing.T) {
			ts, _ := newTestServer(t)
			mix, _ := workload.MixByName(name)
			corpus, ops := workload.Generate(3, mix, 48)

			httpTgt := workload.NewHTTPTarget(ts.URL)
			defer httpTgt.Close()
			inproc := workload.NewInProc(nlexplain.NewEngine(nlexplain.EngineOptions{Workers: 2}))
			if err := httpTgt.RegisterTables(corpus.Tables); err != nil {
				t.Fatal(err)
			}
			if err := inproc.RegisterTables(corpus.Tables); err != nil {
				t.Fatal(err)
			}
			for i, op := range ops {
				a := inproc.Do(context.Background(), op)
				b := httpTgt.Do(context.Background(), op)
				if a.Class != b.Class {
					t.Fatalf("op %d (%s %q): inproc=%s http=%s", i, op.Family, op.Query, a.Class, b.Class)
				}
			}
		})
	}
}
