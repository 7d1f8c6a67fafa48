package workload

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"nlexplain/internal/dcs"
	"nlexplain/internal/engine"
	"nlexplain/internal/minisql"
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
		if HashOps(opsA) != HashOps(opsB) {
			t.Fatalf("mix %s: same ops hash differently", mix.Name)
		}
		_, opsC := Generate(2, mix, 300)
		if HashOps(opsA) == HashOps(opsC) {
			t.Fatalf("mix %s: different seeds produced identical op streams", mix.Name)
		}
	}
}

// TestGeneratedOpsAreWellFormed executes every op family directly:
// valid families must parse and run, the SQL family must stay inside
// the minisql fragment, and malformed ops must fail to explain.
func TestGeneratedOpsAreWellFormed(t *testing.T) {
	corpus, ops := Generate(3, mustMix(t, "mixed"), 400)
	advMix := mustMix(t, "adversarial")
	ops = append(ops, NewGenerator(3, advMix, corpus).Ops(200)...)
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
		case OpSQL:
			tbl, _ := corpus.Table(op.Table)
			q, err := minisql.Parse(op.SQL)
			if err != nil {
				t.Fatalf("op %d: generated SQL %q does not parse: %v", i, op.SQL, err)
			}
			if _, err := minisql.Exec(q, tbl); err != nil {
				t.Fatalf("op %d: generated SQL %q does not execute: %v", i, op.SQL, err)
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
	tgt := NewInProc(engine.Options{Workers: 4})
	rep, err := Run(context.Background(), tgt, corpus, ops, Options{
		Workers: 8, MaxOps: 192, Seed: 17, MixName: "churn",
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
	if _, ok := rep.PerKind[string(OpChurn)]; !ok {
		t.Fatalf("per-kind breakdown missing churn: %v", rep.PerKind)
	}
	stats := rep.Engine
	if stats == nil || stats.StoreGen == 0 {
		t.Fatalf("store generation not recorded in engine stats: %+v", stats)
	}
	// Churn tables are dropped on completion: only the corpus remains.
	if stats.Tables != len(corpus.Tables) {
		t.Fatalf("Tables = %d after churn, want %d (leaked churn tables)", stats.Tables, len(corpus.Tables))
	}
}

func TestRunInProcClosedLoop(t *testing.T) {
	corpus, ops := Generate(1, mustMix(t, "explain"), 64)
	tgt := NewInProc(engine.Options{Workers: 4})
	rep, err := Run(context.Background(), tgt, corpus, ops, Options{
		Workers: 4, MaxOps: 256, Seed: 1, MixName: "explain",
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
	if rep.Latency.Count != 256 || rep.Latency.P99Ms < rep.Latency.P50Ms {
		t.Fatalf("latency summary inconsistent: %+v", rep.Latency)
	}
	if rep.Throughput <= 0 {
		t.Fatalf("throughput = %v, want > 0", rep.Throughput)
	}
	// 256 ops over a 64-op cycle: at least three quarters repeat, so
	// the result cache must serve a healthy share.
	if rep.CacheHitRatio < 0.5 {
		t.Fatalf("cache hit ratio = %v, want >= 0.5 on a cycled op set", rep.CacheHitRatio)
	}
	if rep.Engine == nil || rep.Engine.Executions == 0 {
		t.Fatalf("engine stats missing from report: %+v", rep.Engine)
	}
	if _, ok := rep.PerKind[string(OpExplain)]; !ok {
		t.Fatalf("per-kind breakdown missing explain: %v", rep.PerKind)
	}
	if rep.OpSetHash == "" || rep.OpSetSize != 64 {
		t.Fatalf("op set metadata missing: size=%d hash=%q", rep.OpSetSize, rep.OpSetHash)
	}
}

func TestRunOpenLoop(t *testing.T) {
	corpus, ops := Generate(5, mustMix(t, "answer"), 32)
	tgt := NewInProc(engine.Options{Workers: 4})
	rep, err := Run(context.Background(), tgt, corpus, ops, Options{
		Workers: 4, MaxOps: 50, QPS: 500, Duration: 5 * time.Second, Seed: 5, MixName: "answer",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.TotalOps == 0 || rep.TotalOps > 50 {
		t.Fatalf("open loop TotalOps = %d, want in (0, 50]", rep.TotalOps)
	}
	if rep.QPS != 500 {
		t.Fatalf("QPS not recorded: %v", rep.QPS)
	}
	if rep.Counts[ClassOK] != rep.TotalOps {
		t.Fatalf("open loop errors: %v", rep.Counts)
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
	tgt := NewInProc(engine.Options{
		Workers:      1,
		MaxPending:   8,
		QueryTimeout: 2 * time.Second,
	})
	start := time.Now()
	rep, err := Run(context.Background(), tgt, corpus, ops, Options{
		Workers: 32, MaxOps: 512, OpTimeout: 5 * time.Second, Seed: 11, MixName: "adversarial",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.TotalOps != 512 {
		t.Fatalf("TotalOps = %d, want 512", rep.TotalOps)
	}
	if rep.Sheds == 0 {
		t.Fatalf("adversarial run against a tiny pool shed nothing: %v", rep.Counts)
	}
	if rep.Timeouts == 0 {
		t.Fatalf("tiny-deadline ops never timed out: %v", rep.Counts)
	}
	if rep.Counts[ClassInternal] != 0 {
		t.Fatalf("adversarial run hit internal errors: %v", rep.Counts)
	}
	if rep.Engine.Sheds == 0 {
		t.Fatalf("engine counters did not record sheds: %+v", rep.Engine)
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
	corpus, _ := Generate(13, mustMix(t, "adversarial"), 1)
	tgt := NewInProc(engine.Options{Workers: 1})
	if err := tgt.RegisterTables(corpus.Tables); err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(13, mustMix(t, "adversarial"), corpus)
	var op Op
	for {
		if op = g.Next(); op.Family == "tiny_timeout" {
			break
		}
	}
	start := time.Now()
	out := tgt.Do(context.Background(), op)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("1ms-deadline op took %v", elapsed)
	}
	if out.Class != ClassTimeout && out.Class != ClassOK {
		t.Fatalf("tiny-deadline op class = %s (err %v), want timeout or ok", out.Class, out.Err)
	}
}

func TestReportRoundTripAndCompare(t *testing.T) {
	corpus, ops := Generate(1, mustMix(t, "mixed"), 64)
	tgt := NewInProc(engine.Options{Workers: 4})
	rep, err := Run(context.Background(), tgt, corpus, ops, Options{Workers: 4, MaxOps: 128, Seed: 1, MixName: "mixed"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	path := t.TempDir() + "/report.json"
	if err := rep.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	loaded, err := ReadReport(path)
	if err != nil {
		t.Fatalf("ReadReport: %v", err)
	}
	if loaded.OpSetHash != rep.OpSetHash || loaded.TotalOps != rep.TotalOps {
		t.Fatalf("report did not round-trip: %+v vs %+v", loaded, rep)
	}

	if vs := Compare(rep, loaded, Tolerances{}); len(vs) != 0 {
		t.Fatalf("identical reports must not regress: %v", vs)
	}

	worse := *loaded
	worse.Latency.P99Ms = rep.Latency.P99Ms*10 + 100
	if vs := Compare(rep, &worse, Tolerances{}); len(vs) == 0 {
		t.Fatal("10x p99 inflation not flagged")
	} else if vs[0].Metric != "latency_p99_ms" {
		t.Fatalf("unexpected violation order: %v", vs)
	}

	slow := *loaded
	slow.Throughput = rep.Throughput * 0.1
	if vs := Compare(rep, &slow, Tolerances{}); len(vs) == 0 {
		t.Fatal("90% throughput collapse not flagged")
	}

	mismatch := *loaded
	mismatch.Seed = 999
	if vs := Compare(rep, &mismatch, Tolerances{}); len(vs) != 1 || vs[0].Metric != "run_shape" {
		t.Fatalf("seed mismatch must yield exactly a run_shape violation, got %v", vs)
	}

	drift := *loaded
	drift.OpSetHash = "deadbeefdeadbeef"
	if vs := Compare(rep, &drift, Tolerances{}); len(vs) != 1 || vs[0].Metric != "op_set_hash" {
		t.Fatalf("op-set drift must yield exactly an op_set_hash violation, got %v", vs)
	}

	reshaped := *loaded
	reshaped.Workers = rep.Workers * 2
	if vs := Compare(rep, &reshaped, Tolerances{}); len(vs) != 1 || vs[0].Metric != "run_shape" {
		t.Fatalf("worker-count mismatch must yield a run_shape violation, got %v", vs)
	}

	short := *loaded
	short.TotalOps = rep.TotalOps / 4
	if vs := Compare(rep, &short, Tolerances{}); len(vs) != 1 || vs[0].Metric != "run_shape" {
		t.Fatalf("4x-shorter run must yield a run_shape violation, got %v", vs)
	}

	if rep.AllocsPerOp <= 0 || rep.BytesPerOp <= 0 {
		t.Fatalf("run did not record allocation metrics: allocs/op=%v bytes/op=%v", rep.AllocsPerOp, rep.BytesPerOp)
	}
	hungry := *loaded
	hungry.AllocsPerOp = rep.AllocsPerOp * 2
	if vs := Compare(rep, &hungry, Tolerances{}); len(vs) == 0 {
		t.Fatal("2x allocs/op growth not flagged")
	} else if vs[0].Metric != "allocs_per_op" {
		t.Fatalf("unexpected violation: %v", vs)
	}
	// A baseline predating the allocation fields (allocs_per_op == 0)
	// must not trip the gate.
	legacy := *rep
	legacy.AllocsPerOp = 0
	legacy.BytesPerOp = 0
	if vs := Compare(&legacy, loaded, Tolerances{}); len(vs) != 0 {
		t.Fatalf("legacy baseline without alloc fields must not regress: %v", vs)
	}

	sum := FormatComparison(rep, &hungry)
	for _, want := range []string{"allocs_per_op", "bytes_per_op", "throughput_ops_s", "+100.0%"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("comparison summary missing %q:\n%s", want, sum)
		}
	}
}

// TestBatchAllFailuresNotCached pins the batch cache semantics: a
// batch that served nothing must not count as a cache hit.
func TestBatchAllFailuresNotCached(t *testing.T) {
	corpus := NewCorpus(1)
	tgt := NewInProc(engine.Options{Workers: 1})
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

func TestSummarizeQuantiles(t *testing.T) {
	durs := make([]time.Duration, 100)
	for i := range durs {
		durs[i] = time.Duration(i+1) * time.Millisecond
	}
	s := summarize(durs)
	if s.P50Ms != 50 || s.P90Ms != 90 || s.P99Ms != 99 || s.MaxMs != 100 {
		t.Fatalf("quantiles wrong: %+v", s)
	}
	if empty := summarize(nil); empty.Count != 0 || empty.MaxMs != 0 {
		t.Fatalf("empty summary wrong: %+v", empty)
	}
}

// TestBigtableSizedCorpusDeterministic pins the sized-corpus contract:
// adding TableBig must not perturb the standard tables (so reports from
// sized and unsized runs stay comparable), the big table itself must be
// seed-deterministic, and the bigtable op stream must be reproducible,
// answer-only, and book its scanned-row counts.
func TestBigtableSizedCorpusDeterministic(t *testing.T) {
	const bigRows = 5000
	base := NewCorpus(7)
	sized := NewCorpusSized(7, bigRows)
	if len(sized.Tables) != len(base.Tables)+1 {
		t.Fatalf("sized corpus has %d tables, want %d", len(sized.Tables), len(base.Tables)+1)
	}
	for i := range base.Tables {
		ta, tb := base.Tables[i], sized.Tables[i]
		if ta.Name() != tb.Name() || ta.NumRows() != tb.NumRows() {
			t.Fatalf("sized corpus perturbed standard table %d (%s)", i, ta.Name())
		}
		for r := 0; r < ta.NumRows(); r++ {
			for c := 0; c < ta.NumCols(); c++ {
				if ta.Raw(r, c) != tb.Raw(r, c) {
					t.Fatalf("table %s cell (%d,%d) differs between sized and unsized corpus", ta.Name(), r, c)
				}
			}
		}
	}
	big, ok := sized.Table(TableBig)
	if !ok || big.NumRows() != bigRows {
		t.Fatalf("sized corpus TableBig: ok=%v rows=%d, want %d", ok, big.NumRows(), bigRows)
	}
	again, _ := NewCorpusSized(7, bigRows).Table(TableBig)
	for r := 0; r < bigRows; r++ {
		for c := 0; c < big.NumCols(); c++ {
			if big.Raw(r, c) != again.Raw(r, c) {
				t.Fatalf("TableBig cell (%d,%d) not deterministic across builds", r, c)
			}
		}
	}

	mix := mustMix(t, "bigtable")
	corpus, opsA := GenerateSized(5, mix, 120, bigRows)
	_, opsB := GenerateSized(5, mix, 120, bigRows)
	if HashOps(opsA) != HashOps(opsB) {
		t.Fatal("bigtable op stream not deterministic for a fixed seed")
	}
	tbl, _ := corpus.Table(TableBig)
	sawSelective := false
	for i, op := range opsA {
		// The answer-only families take the fast path; big_selective is
		// mini-SQL so its fused range conjunction stays on the zone-map
		// scan path in-process.
		if op.Kind != OpAnswer && !(op.Kind == OpSQL && op.Family == "big_selective") {
			t.Fatalf("op %d (%s): kind = %v, want answer or selective sql bigtable traffic", i, op.Family, op.Kind)
		}
		if op.Table != TableBig {
			t.Fatalf("op %d: table = %q, want %q", i, op.Table, TableBig)
		}
		if op.ScanRows != bigRows {
			t.Fatalf("op %d: ScanRows = %d, want %d", i, op.ScanRows, bigRows)
		}
		q, err := dcs.Parse(op.Query)
		if err != nil {
			t.Fatalf("op %d (%s): query %q does not parse: %v", i, op.Family, op.Query, err)
		}
		res, err := dcs.Execute(q, tbl)
		if err != nil {
			t.Fatalf("op %d (%s): query %q does not execute: %v", i, op.Family, op.Query, err)
		}
		if op.Kind == OpSQL {
			// The SQL form and its DCS fallback must denote the same
			// count, or HTTP and in-process runs measure different work.
			sawSelective = true
			sq, err := minisql.Parse(op.SQL)
			if err != nil {
				t.Fatalf("op %d: sql %q does not parse: %v", i, op.SQL, err)
			}
			rows, err := minisql.Exec(sq, tbl)
			if err != nil {
				t.Fatalf("op %d: sql %q does not execute: %v", i, op.SQL, err)
			}
			if len(rows.Data) != 1 || len(rows.Data[0]) != 1 {
				t.Fatalf("op %d: sql %q returned %d rows, want a single count", i, op.SQL, len(rows.Data))
			}
			sqlCount := rows.Data[0][0].String()
			dcsCount := res.Values[0].String()
			if sqlCount != dcsCount {
				t.Fatalf("op %d: sql count %s != dcs count %s (%q vs %q)", i, sqlCount, dcsCount, op.SQL, op.Query)
			}
		}
	}
	if !sawSelective {
		t.Fatal("bigtable mix generated no big_selective ops in 120 draws")
	}
}
