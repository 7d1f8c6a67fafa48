package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"syscall"
	"testing"
	"time"

	"nlexplain/internal/engine"
	"nlexplain/internal/fault"
	"nlexplain/internal/vfs"
)

// newDegradableServer builds a durable test server over an InjectFS so
// tests can seal the WAL from outside and watch the HTTP surface
// degrade and recover.
func newDegradableServer(t *testing.T) (*httptest.Server, *fault.InjectFS) {
	t.Helper()
	fs := fault.NewInject(vfs.OS, 1)
	e, err := engine.Open(engine.Options{
		Workers:            2,
		DataDir:            t.TempDir(),
		CheckpointInterval: -1,
		FS:                 fs,
		RecoveryDelay:      time.Millisecond,
	})
	if err != nil {
		t.Fatalf("OpenEngine: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	ts := httptest.NewServer(newMux(e, muxConfig{}))
	t.Cleanup(ts.Close)
	return ts, fs
}

// TestServerDegradedEnvelope drives the whole degraded episode over
// HTTP: mutations map to 503 + code "unavailable" + Retry-After (not
// 500/internal), healthz flips to 503 {"status":"degraded"}, reads
// keep answering, and after healing both return to normal.
func TestServerDegradedEnvelope(t *testing.T) {
	ts, fs := newDegradableServer(t)
	registerOlympics(t, ts)

	fs.SetRules(&fault.Rule{Op: fault.OpWrite, Path: "wal-*.log", Count: fault.Sticky, Err: syscall.EIO})

	// First faulted mutation and the fail-fast one after it: both 503
	// with the stable "unavailable" code and a Retry-After header.
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/tables", map[string]any{
			"name":    "victim",
			"columns": []string{"A"},
			"rows":    [][]string{{"1"}},
		})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("mutation %d: status %d, want 503: %s", i, resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("mutation %d: missing Retry-After header", i)
		}
		var envelope struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal(body, &envelope); err != nil {
			t.Fatalf("mutation %d: bad envelope %s: %v", i, body, err)
		}
		if envelope.Error.Code != "unavailable" || envelope.Error.Message == "" {
			t.Fatalf("mutation %d: envelope = %+v, want code unavailable", i, envelope)
		}
	}

	// Appends map the same way.
	resp, _ := doJSON(t, "PATCH", ts.URL+"/v1/tables/olympics", map[string]any{
		"rows": [][]string{{"2016", "Rio", "Brazil", "207"}},
	})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("degraded append: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Healthz drains the node.
	resp, body := getJSON(t, ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded healthz: status %d: %s", resp.StatusCode, body)
	}
	var health struct {
		Status string `json:"status"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.Reason == "" {
		t.Fatalf("degraded healthz = %+v", health)
	}

	// Reads still serve.
	resp, body = postJSON(t, ts.URL+"/v1/explain", map[string]any{
		"table": "olympics", "query": "count(City.Athens)",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded read: status %d: %s", resp.StatusCode, body)
	}

	// Heal and wait for the checkpoint loop to lift read-only mode.
	fs.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ = getJSON(t, ts.URL+"/v1/healthz")
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz still degraded 5s after heal")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Mutations work again.
	resp, body = postJSON(t, ts.URL+"/v1/tables", map[string]any{
		"name":    "victim",
		"columns": []string{"A"},
		"rows":    [][]string{{"1"}},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-recovery register: status %d: %s", resp.StatusCode, body)
	}
}
