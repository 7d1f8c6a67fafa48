package workload

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"nlexplain/internal/dcs"
	"nlexplain/internal/engine"
	"nlexplain/internal/metric"
	"nlexplain/internal/table"
)

func mustMix(t *testing.T, name string) Mix {
	t.Helper()
	m, ok := MixByName(name)
	if !ok {
		t.Fatalf("unknown mix %q", name)
	}
	return m
}

// counter reads one counter or gauge off an in-process engine's
// registry by its canonical dotted name.
func counter(t testing.TB, e *engine.Engine, name string) uint64 {
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

func TestCorpusDeterministic(t *testing.T) {
	a, b := NewCorpus(7), NewCorpus(7)
	if len(a.Tables) != 4 {
		t.Fatalf("corpus has %d tables, want 4", len(a.Tables))
	}
	for i := range a.Tables {
		ta, tb := a.Tables[i], b.Tables[i]
		if ta.Name() != tb.Name() || ta.NumRows() != tb.NumRows() {
			t.Fatalf("corpus table %d differs in shape", i)
		}
		for r := 0; r < ta.NumRows(); r++ {
			for c := 0; c < ta.NumCols(); c++ {
				if ta.Raw(r, c) != tb.Raw(r, c) {
					t.Fatalf("corpus table %s cell (%d,%d) differs: %q vs %q", ta.Name(), r, c, ta.Raw(r, c), tb.Raw(r, c))
				}
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, mix := range Mixes {
		_, opsA := Generate(1, mix, 300)
		_, opsB := Generate(1, mix, 300)
		if !reflect.DeepEqual(opsA, opsB) {
			t.Fatalf("mix %s: same seed produced different op streams", mix.Name)
		}
		_, opsC := Generate(2, mix, 300)
		if reflect.DeepEqual(opsA, opsC) {
			t.Fatalf("mix %s: different seeds produced identical op streams", mix.Name)
		}
	}
}

// TestGenerateGolden pins the op streams the tests below run: a
// SHA-256 over the JSON encoding of Generate(seed, mix, n) for every
// (mix, seed, n) they use. A changed generator changes what every
// assertion on a run means, so it must show up here first.
func TestGenerateGolden(t *testing.T) {
	for _, c := range []struct {
		mix  string
		seed int64
		n    int
		want string
	}{
		{"explain", 1, 64, "72aabbcb8026820552363b1d3a0397335d09fe580455c288102cf843516cebde"},
		{"explain", 3, 48, "f4bbdcd282ab8c11918b136fba6343b4075a5fa33c21b5f1482a43cdeb693ae1"},
		{"adversarial", 3, 200, "4a27eb01a104e6ebc6e2a555bb0cce30555348319098861c5ccc28390849c7a0"},
		{"adversarial", 11, 256, "9d80badaa64172a472713a17472173ff06bbf41b0624e213f2f7b7bbd44b456e"},
		{"adversarial", 13, 64, "2d393ac83324728868766ceaa2ac19bcb09133d6d8de0105c10e1f49facc0acd"},
		{"churn", 17, 96, "542471c00f4a72a3b720e5073963f195597f9d40ca0a98538c561181051a30fb"},
		{"durable", 1, 64, "6b54a352b82a64fe708ace0d9723b7beeb2646868dd6fe102d0d38aedc4065a5"},
	} {
		_, ops := Generate(c.seed, mustMix(t, c.mix), c.n)
		b, err := json.Marshal(ops)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("Generate(%d, %s, %d) hashes to %s, want %s", c.seed, c.mix, c.n, got, c.want)
		}
	}
}

// TestGeneratedOpsAreWellFormed executes every op family directly:
// valid families must parse and run, and malformed ops must fail to
// explain.
func TestGeneratedOpsAreWellFormed(t *testing.T) {
	corpus, ops := Generate(3, mustMix(t, "mixed"), 400)
	_, adv := Generate(3, mustMix(t, "adversarial"), 200) // same seed, same corpus
	ops = append(ops, adv...)
	for i, op := range ops {
		switch op.Kind {
		case OpExplain, OpAnswer:
			tbl, ok := corpus.Table(op.Table)
			if op.Family == "unknown_table" {
				if ok {
					t.Fatalf("op %d: unknown_table family hit a real table %q", i, op.Table)
				}
				continue
			}
			if !ok {
				t.Fatalf("op %d: table %q not in corpus", i, op.Table)
			}
			q, err := dcs.Parse(op.Query)
			if op.Family == "malformed" {
				if err == nil {
					if _, execErr := dcs.Execute(q, tbl); execErr == nil {
						t.Fatalf("op %d: malformed query %q parsed and executed", i, op.Query)
					}
				}
				continue
			}
			if err != nil {
				t.Fatalf("op %d (%s): query %q does not parse: %v", i, op.Family, op.Query, err)
			}
			if _, err := dcs.Execute(q, tbl); err != nil {
				t.Fatalf("op %d (%s): query %q does not execute: %v", i, op.Family, op.Query, err)
			}
		case OpBatch:
			if len(op.Batch) == 0 {
				t.Fatalf("op %d: empty batch", i)
			}
			for _, e := range op.Batch {
				tbl, ok := corpus.Table(e.Table)
				if !ok {
					t.Fatalf("op %d: batch entry table %q not in corpus", i, e.Table)
				}
				q, err := dcs.Parse(e.Query)
				if err != nil {
					t.Fatalf("op %d: batch query %q does not parse: %v", i, e.Query, err)
				}
				if _, err := dcs.Execute(q, tbl); err != nil {
					t.Fatalf("op %d: batch query %q does not execute: %v", i, e.Query, err)
				}
			}
		case OpParse:
			if op.Question == "" {
				t.Fatalf("op %d: parse op without question", i)
			}
		case OpChurn:
			if len(op.Columns) == 0 || len(op.Rows) == 0 || len(op.AppendRows) == 0 {
				t.Fatalf("op %d: churn op missing payload: %+v", i, op)
			}
			base, err := table.New("churn_check", op.Columns, op.Rows)
			if err != nil {
				t.Fatalf("op %d: churn rows do not build: %v", i, err)
			}
			grown, err := base.Append(op.AppendRows)
			if err != nil {
				t.Fatalf("op %d: churn append rows do not build: %v", i, err)
			}
			q, err := dcs.Parse(op.Query)
			if err != nil {
				t.Fatalf("op %d: churn query %q does not parse: %v", i, op.Query, err)
			}
			for _, tbl := range []*table.Table{base, grown} {
				if _, err := dcs.Execute(q, tbl); err != nil {
					t.Fatalf("op %d: churn query %q fails on %d-row state: %v", i, op.Query, tbl.NumRows(), err)
				}
			}
		}
	}
}

// TestChurnMixSnapshotIsolation drives the churn mix concurrently at
// an in-process engine; under -race this is the workload-level proof
// that registrations, appends, drops and queries interleave without
// torn snapshots or stale cached results (the churn target classifies
// any version mismatch as an internal error).
func TestChurnMixSnapshotIsolation(t *testing.T) {
	corpus, ops := Generate(17, mustMix(t, "churn"), 96)
	tgt := NewInProc(engine.New(engine.Options{Workers: 4}))
	rep, err := Run(context.Background(), tgt, corpus, ops, Options{
		Workers: 8, MaxOps: 192,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.TotalOps != 192 {
		t.Fatalf("TotalOps = %d, want 192", rep.TotalOps)
	}
	if rep.Counts[ClassInternal] != 0 {
		t.Fatalf("churn run saw internal errors (torn snapshot / stale cache): %v", rep.Counts)
	}
	if rep.Counts[ClassOK] != rep.TotalOps {
		t.Fatalf("churn run not fully ok: %v", rep.Counts)
	}
	if counter(t, tgt.Engine, "store.generation") == 0 {
		t.Fatal("store.generation = 0 after a churn run")
	}
	// Churn tables are dropped on completion: only the corpus remains.
	if n := counter(t, tgt.Engine, "store.tables"); n != uint64(len(corpus.Tables)) {
		t.Fatalf("store.tables = %d after churn, want %d (leaked churn tables)", n, len(corpus.Tables))
	}
}

func TestRunInProcClosedLoop(t *testing.T) {
	corpus, ops := Generate(1, mustMix(t, "explain"), 64)
	tgt := NewInProc(engine.New(engine.Options{Workers: 4}))
	rep, err := Run(context.Background(), tgt, corpus, ops, Options{
		Workers: 4, MaxOps: 256,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.TotalOps != 256 {
		t.Fatalf("TotalOps = %d, want 256", rep.TotalOps)
	}
	if rep.Counts[ClassOK] != 256 {
		t.Fatalf("ok count = %d (counts %v), want every op ok", rep.Counts[ClassOK], rep.Counts)
	}
	// 256 ops over a 64-op cycle: at least three quarters repeat, so
	// the result cache must serve a healthy share.
	if 2*rep.Cached < rep.TotalOps {
		t.Fatalf("%d of %d ops served from cache, want >= half on a cycled op set", rep.Cached, rep.TotalOps)
	}
	if counter(t, tgt.Engine, "engine.executions") == 0 {
		t.Fatal("engine.executions = 0 after an explain run")
	}
}

// TestAdversarialOverload is the load-shedding contract under real
// concurrency: the adversarial mix against a one-worker engine with a
// tiny admission queue must shed (ErrOverloaded -> counted), honor
// tiny deadlines (timeouts counted, ops return promptly), and leave
// the engine healthy afterwards.
func TestAdversarialOverload(t *testing.T) {
	// On a single-P runtime a ~20ms compute goroutine runs to
	// completion before other submitters are scheduled, so the
	// admission queue can never fill; give the scheduler real
	// parallelism so submissions overlap the way they do in production.
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	// One worker and a small admission queue: with 32 concurrent
	// submitters, ~20ms hogs both fill the queue (sheds) and make
	// admitted tiny-deadline ops expire while queued (timeouts).
	corpus, ops := Generate(11, mustMix(t, "adversarial"), 256)
	tgt := NewInProc(engine.New(engine.Options{
		Workers:      1,
		MaxPending:   8,
		QueryTimeout: 2 * time.Second,
	}))
	start := time.Now()
	rep, err := Run(context.Background(), tgt, corpus, ops, Options{
		Workers: 32, MaxOps: 512, OpTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.TotalOps != 512 {
		t.Fatalf("TotalOps = %d, want 512", rep.TotalOps)
	}
	if rep.Counts[ClassOverloaded] == 0 {
		t.Fatalf("adversarial run against a tiny pool shed nothing: %v", rep.Counts)
	}
	if rep.Counts[ClassTimeout] == 0 {
		t.Fatalf("tiny-deadline ops never timed out: %v", rep.Counts)
	}
	if rep.Counts[ClassInternal] != 0 {
		t.Fatalf("adversarial run hit internal errors: %v", rep.Counts)
	}
	if counter(t, tgt.Engine, "engine.sheds") == 0 {
		t.Fatal("engine.sheds did not record the sheds")
	}
	// Deadlines bounded every op, so the whole storm must finish in
	// wall time far below ops x QueryTimeout.
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Fatalf("overload run took %v; deadlines are not being honored", elapsed)
	}
	// Recovery: the pool must be fully drained and serving again.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := tgt.Engine.Explain(ctx, TableSmall, "count(Record)"); err != nil {
		t.Fatalf("engine did not recover after overload: %v", err)
	}
}

// TestTinyDeadlineHonored drives one cold expensive op with a 1ms
// deadline straight at the target and requires a prompt, classified
// return.
func TestTinyDeadlineHonored(t *testing.T) {
	corpus, ops := Generate(13, mustMix(t, "adversarial"), 64)
	tgt := NewInProc(engine.New(engine.Options{Workers: 1}))
	if err := tgt.RegisterTables(corpus.Tables); err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(ops, func(op Op) bool { return op.Family == "tiny_timeout" })
	if i < 0 {
		t.Fatal("no tiny_timeout op in the first 64 adversarial ops")
	}
	op := ops[i]
	start := time.Now()
	out := tgt.Do(context.Background(), op)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("1ms-deadline op took %v", elapsed)
	}
	if out.Class != ClassTimeout && out.Class != ClassOK {
		t.Fatalf("tiny-deadline op class = %s (err %v), want timeout or ok", out.Class, out.Err)
	}
}

// TestBatchAllFailuresNotCached pins the batch cache semantics: a
// batch that served nothing must not count as a cache hit.
func TestBatchAllFailuresNotCached(t *testing.T) {
	corpus := NewCorpus(1)
	tgt := NewInProc(engine.New(engine.Options{Workers: 1}))
	if err := tgt.RegisterTables(corpus.Tables); err != nil {
		t.Fatal(err)
	}
	op := Op{Kind: OpBatch, Family: "batch", Batch: []BatchEntry{
		{Table: "no_such_table", Query: "count(Record)"},
		{Table: TableSmall, Query: "max("},
	}}
	out := tgt.Do(context.Background(), op)
	if out.Cached {
		t.Fatalf("all-failure batch marked cached: %+v", out)
	}
	if out.Class != ClassClientError {
		t.Fatalf("all-failure batch class = %s, want client_error", out.Class)
	}
}

// TestHTTPBatchItemClasses pins how the HTTP target books failed batch
// items: by each item's error_code, worst class winning, exactly as
// the in-process target classifies the typed errors. The canned
// handler fails every query of the batch, the i-th with codes[i].
func TestHTTPBatchItemClasses(t *testing.T) {
	codes := []string{"bad_request", "deadline_exceeded", "overloaded", "internal"}
	wants := []string{ClassClientError, ClassTimeout, ClassOverloaded, ClassInternal}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Queries []json.RawMessage `json:"queries"`
		}
		if r.URL.Path != "/v1/explain/batch" || json.NewDecoder(r.Body).Decode(&req) != nil {
			http.NotFound(w, r)
			return
		}
		items := make([]map[string]any, len(req.Queries))
		for i := range items {
			items[i] = map[string]any{"cached": false, "error": "canned", "error_code": codes[i]}
		}
		json.NewEncoder(w).Encode(map[string]any{"results": items, "errors": len(items)})
	}))
	defer srv.Close()
	h := NewHTTPTarget(srv.URL)
	defer h.Close()
	op := Op{Kind: OpBatch, Family: "batch"}
	for n, want := range wants {
		op.Batch = append(op.Batch, BatchEntry{Table: TableSmall, Query: "count(Record)"})
		if out := h.Do(context.Background(), op); out.Class != want || out.Cached {
			t.Fatalf("batch failing with %v: class = %s cached = %v, want %s uncached", codes[:n+1], out.Class, out.Cached, want)
		}
	}
}
