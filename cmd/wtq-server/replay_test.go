package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"nlexplain/internal/engine"
)

// opsFile holds three seed-3 tables, then the 48 ops of the explain
// stream and the 48 of the mixed stream, one JSON object a line, each
// op with the outcome class an in-process engine returns for it. The
// seeded generator that wrote it is gone; the two hashes pin it.
const (
	opsFile       = "testdata/ops.jsonl"
	opsFileSHA256 = "c9ce5d1b3ae3a5719e7744015ef821cecdd2378d852940b96dc60cac42dea9af"
	// explainOpsSHA256 is the SHA-256 of the explain stream's ops, as a
	// JSON array without their classes: the generator's golden value.
	explainOpsSHA256 = "f4bbdcd282ab8c11918b136fba6343b4075a5fa33c21b5f1482a43cdeb693ae1"
	streamLen        = 48
)

// replayOp is one line of opsFile. Kind "table" is a table to
// register (Table, Columns, Rows); every other kind is an op. The
// replay also builds the steps of a churn op as ops of kinds register,
// append and drop.
type replayOp struct {
	Kind       string       `json:"kind"`
	Family     string       `json:"family"`
	Table      string       `json:"table,omitempty"`
	Query      string       `json:"query,omitempty"`
	Question   string       `json:"question,omitempty"`
	Batch      []batchEntry `json:"batch,omitempty"`
	Columns    []string     `json:"columns,omitempty"`
	Rows       [][]string   `json:"rows,omitempty"`
	AppendRows [][]string   `json:"append_rows,omitempty"`
	TimeoutMs  int          `json:"timeout_ms,omitempty"`
	Class      string       `json:"class,omitempty"`
}

type batchEntry struct {
	Table string `json:"table"`
	Query string `json:"query"`
}

// readOps reads opsFile, checks both hashes and splits it into tables
// and ops.
func readOps(t *testing.T) (tables, ops []replayOp) {
	t.Helper()
	raw, err := os.ReadFile(opsFile)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != opsFileSHA256 {
		t.Fatalf("%s hashes to %x, want %s", opsFile, sum, opsFileSHA256)
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var op replayOp
		if err := json.Unmarshal(sc.Bytes(), &op); err != nil {
			t.Fatal(err)
		}
		if op.Kind == "table" {
			tables = append(tables, op)
		} else {
			ops = append(ops, op)
		}
	}
	if len(tables) != 3 || len(ops) != 2*streamLen {
		t.Fatalf("%s holds %d tables and %d ops, want 3 and %d", opsFile, len(tables), len(ops), 2*streamLen)
	}
	explain := make([]replayOp, streamLen)
	for i, op := range ops[:streamLen] {
		op.Class = ""
		explain[i] = op
	}
	b, err := json.Marshal(explain)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != explainOpsSHA256 {
		t.Fatalf("explain stream hashes to %x, want %s", sum, explainOpsSHA256)
	}
	return tables, ops
}

// result is what the replay reads of one call: its outcome class and
// the table version and generation a response carries.
type result struct {
	class      string
	Version    string `json:"version"`
	Generation uint64 `json:"generation"`
}

type target func(ctx context.Context, op replayOp) result

// outcomeClass maps the server's error code vocabulary onto opsFile's
// outcome classes: ok and client_error. Any other code stays itself,
// which no recorded class matches.
func outcomeClass(code string) string {
	switch code {
	case "":
		return "ok"
	case codeBadRequest, codeUnknownTable:
		return "client_error"
	}
	return code
}

// inProcess calls e's API directly; errors are classed by the code the
// server would send for them.
func inProcess(e *engine.Engine) target {
	return func(ctx context.Context, op replayOp) (r result) {
		var err error
		switch op.Kind {
		case "explain":
			var ex *engine.Explanation
			if ex, _, err = e.ExplainCached(ctx, op.Table, op.Query); err == nil {
				r.Version = ex.Version
			}
		case "answer":
			var ans *engine.Answer
			if ans, _, err = e.ExplainAnswer(ctx, op.Table, op.Query); err == nil {
				r.Version = ans.Version
			}
		case "parse":
			_, err = e.ParseQuestion(ctx, op.Table, op.Question, 0)
		case "batch":
			reqs := make([]engine.Request, len(op.Batch))
			for i, q := range op.Batch {
				reqs[i] = engine.Request{Table: q.Table, Query: q.Query}
			}
			for _, res := range e.ExplainBatch(ctx, reqs) {
				if err == nil {
					err = res.Err
				}
			}
		case "register", "append":
			var info engine.TableInfo
			if op.Kind == "register" {
				info, err = e.RegisterRaw(op.Table, op.Columns, op.Rows)
			} else {
				info, err = e.AppendRows(op.Table, op.AppendRows)
			}
			r.Version, r.Generation = info.Version, info.Generation
		case "drop":
			_, _, err = e.DropTable(op.Table)
		}
		code := ""
		if err != nil {
			_, code = classify(err)
		}
		r.class = outcomeClass(code)
		return r
	}
}

// overHTTP sends each op to a wtq-server at base; a failed response is
// classed by its envelope's code, a batch by its first failed item's.
func overHTTP(base string) target {
	return func(ctx context.Context, op replayOp) result {
		method, path := http.MethodPost, "/v1/"+op.Kind
		var body any = map[string]string{"table": op.Table, "query": op.Query}
		switch op.Kind {
		case "parse":
			body = map[string]string{"table": op.Table, "question": op.Question}
		case "batch":
			path, body = "/v1/explain/batch", map[string]any{"queries": op.Batch}
		case "register":
			path, body = "/v1/tables", map[string]any{"name": op.Table, "columns": op.Columns, "rows": op.Rows}
		case "append":
			method, path, body = http.MethodPatch, "/v1/tables/"+op.Table, map[string]any{"rows": op.AppendRows}
		case "drop":
			method, path, body = http.MethodDelete, "/v1/tables/"+op.Table, nil
		}
		raw, _ := json.Marshal(body) // maps of strings and string slices always encode
		req, err := http.NewRequestWithContext(ctx, method, base+path, bytes.NewReader(raw))
		if err != nil {
			return result{class: "transport"}
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return result{class: "transport"}
		}
		defer resp.Body.Close()
		var r struct {
			result
			Error   struct{ Code string }
			Results []struct {
				ErrorCode string `json:"error_code"`
			}
		}
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			return result{class: "transport"}
		}
		code := r.Error.Code
		for _, item := range r.Results {
			if code == "" {
				code = item.ErrorCode
			}
		}
		r.class = outcomeClass(code)
		return r.result
	}
}

// churn runs a churn op's table lifecycle under name: register,
// explain, append, answer, drop. Each read must serve the version its
// preceding mutation installed, and the append must advance the
// generation; otherwise the op is classed internal.
func churn(ctx context.Context, do target, op replayOp, name string) string {
	reg := do(ctx, replayOp{Kind: "register", Table: name, Columns: op.Columns, Rows: op.Rows})
	if reg.class != "ok" {
		return reg.class
	}
	defer do(ctx, replayOp{Kind: "drop", Table: name})
	ex := do(ctx, replayOp{Kind: "explain", Table: name, Query: op.Query})
	grown := do(ctx, replayOp{Kind: "append", Table: name, AppendRows: op.AppendRows})
	ans := do(ctx, replayOp{Kind: "answer", Table: name, Query: op.Query})
	for _, r := range []result{ex, grown, ans} {
		if r.class != "ok" {
			return r.class
		}
	}
	if ex.Version != reg.Version || grown.Generation <= reg.Generation || ans.Version != grown.Version {
		return "internal"
	}
	return "ok"
}

// replay runs every op once from the given number of clients and
// requires each to get its recorded class.
func replay(t *testing.T, do target, ops []replayOp, clients int) {
	t.Helper()
	ctx := context.Background()
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(ops); i = int(next.Add(1)) - 1 {
				op := ops[i]
				var got string
				if op.Kind == "churn" {
					got = churn(ctx, do, op, fmt.Sprintf("%s_%d", op.Table, i))
				} else {
					got = do(ctx, op).class
				}
				if got != op.Class {
					t.Errorf("%d clients, op %d (%s %s): class %s, recorded %s", clients, i, op.Kind, op.Family, got, op.Class)
				}
			}
		}()
	}
	wg.Wait()
}

// TestReplayDifferential replays opsFile in process and over HTTP,
// first serially and then from 4 concurrent clients: every op must get
// the class recorded for it each time. Afterwards each engine holds
// only the three tables (no churn table leaked) and has served cache
// hits.
func TestReplayDifferential(t *testing.T) {
	tables, ops := readOps(t)
	ts, served := newTestServer(t)
	inproc := engine.New(engine.Options{Workers: 2})
	for _, tgt := range []struct {
		name string
		e    *engine.Engine
		do   target
	}{{"in process", inproc, inProcess(inproc)}, {"http", served, overHTTP(ts.URL)}} {
		t.Run(tgt.name, func(t *testing.T) {
			for _, tab := range tables {
				if _, err := tgt.e.RegisterRaw(tab.Table, tab.Columns, tab.Rows); err != nil {
					t.Fatal(err)
				}
			}
			replay(t, tgt.do, ops, 1)
			replay(t, tgt.do, ops, 4)
			if n := counter(t, tgt.e, "store.tables"); n != uint64(len(tables)) {
				t.Errorf("store.tables = %d after the replay, want %d", n, len(tables))
			}
			if counter(t, tgt.e, "engine.cache.result.hits") == 0 {
				t.Error("no explanation served from cache on the second pass")
			}
		})
	}
}
