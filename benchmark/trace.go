package main

// The per-layer pass. It replays the first ops of a workload's stream
// in this process, single-threaded, and wraps every call into a layer's
// public functions in a span recorded from here — the program under
// test carries no instrumentation of ours. A second part probes the
// storage layers (table, store, wal, segment) on the workload's own
// tables. Layers a workload never enters report 0.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"nlexplain/internal/dcs"
	"nlexplain/internal/engine"
	"nlexplain/internal/export"
	"nlexplain/internal/plan"
	"nlexplain/internal/provenance"
	"nlexplain/internal/render"
	"nlexplain/internal/segment"
	"nlexplain/internal/sqlgen"
	"nlexplain/internal/store"
	"nlexplain/internal/table"
	"nlexplain/internal/utterance"
	"nlexplain/internal/wal"
)

// How much of each stream the pass replays: sized so the pass takes
// about ten seconds on the 2-core sandbox. traceBudget stops a replay
// early on a much slower machine rather than overrunning the driver's
// limit; the ops done so far still give every metric.
var traceOps = map[string]int{"ask": 120, "explain_cold": 1000, "explain_hot": 1000, "scan": 400, "mutate": 464}

const (
	traceReps   = 3 // each op is timed this often and the minimum kept
	traceBudget = 40 * time.Second
	probeTables = 64 // tables the storage probes touch at most
)

// span is one timed call. Parent indexes the span slice; -1 marks a root.
type span struct {
	Op     int    `json:"op"`
	Rep    int    `json:"rep"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; they are written out, if asked for,
// when the benchmark ends.
type tracer struct {
	off     bool
	t0      time.Time
	spans   []span
	stack   []int
	op, rep int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) do(name string, fn func()) {
	if t.off {
		fn()
		return
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Op: t.op, Rep: t.rep, Name: name, Parent: parent})
	t.stack = append(t.stack, i)
	t.spans[i].Start = int64(time.Since(t.t0))
	fn()
	t.spans[i].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns each span's duration minus the part its children
// cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// perOpMin folds spans into name -> op -> duration in µs: the minimum
// over the op's repetitions, so that what varies across ops is the
// inputs and not the machine's jitter.
func perOpMin(spans []span) map[string]map[int]float64 {
	out := map[string]map[int]float64{}
	for _, s := range spans {
		byOp := out[s.Name]
		if byOp == nil {
			byOp = map[int]float64{}
			out[s.Name] = byOp
		}
		d := float64(s.End-s.Start) / 1e3
		if cur, ok := byOp[s.Op]; !ok || d < cur {
			byOp[s.Op] = d
		}
	}
	return out
}

func values(byOp map[int]float64) []float64 {
	out := make([]float64, 0, len(byOp))
	for _, v := range byOp {
		out = append(out, v)
	}
	return out
}

// mallocs runs fn once and returns the heap objects and bytes it
// allocated. The pass is single-threaded, so the process-wide counters
// are fn's own.
func mallocs(fn func()) (objects, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

type mean struct{ sum, n float64 }

func (m *mean) add(v float64) { m.sum += v; m.n++ }
func (m *mean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / m.n
}

// replay is the state of one workload's in-process replay.
type replay struct {
	w      *workload
	tr     *tracer
	ctx    context.Context
	eng    [traceReps]*engine.Engine // one per repetition, so every repetition of an op misses
	hot    bool                      // the loopback pass serves this workload from the result cache
	counts map[string]*mean          // per-op counts that are not times
	// equiv names, per replayed primary-class op, the engine spans that
	// add up to what the server's handler calls for it.
	equiv  map[int][]string
	encBuf bytes.Buffer
	enc    *json.Encoder
}

func (r *replay) count(name string, v float64) {
	if r.counts[name] == nil {
		r.counts[name] = &mean{}
	}
	r.counts[name].add(v)
}

// buildTables turns generated tables into the module's table type.
func buildTables(tds []*tableData) ([]*table.Table, error) {
	out := make([]*table.Table, len(tds))
	for i, td := range tds {
		t, err := table.New(td.Name, td.Columns, td.Rows)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

func (w *workload) corpus() []*tableData {
	return append(append([]*tableData(nil), w.CSV...), w.Tables...)
}

// tracePass runs the in-process pass, adds its metrics to res and keeps
// the spans there until the benchmark ends.
func tracePass(dir string, w *workload, res *result) error {
	layer := specByName(perLayer)
	set := func(name string, v float64) {
		if _, ok := layer[name]; !ok {
			panic("per-layer metric not in spec: " + name)
		}
		res.PerLayer[name] = metricValue{Value: v, Unit: layer[name].Unit}
	}
	for _, m := range perLayer {
		if _, ok := res.PerLayer[m.Name]; !ok {
			set(m.Name, 0)
		}
	}
	tr := newTracer()
	r, err := newReplay(w, tr, dir)
	if err != nil {
		return err
	}
	defer r.close()

	n := min(traceOps[w.Name], len(w.Ops))
	start := time.Now()
	done := 0
	for ; done < n && time.Since(start) < traceBudget; done++ {
		tr.op = done
		if err := r.op(done); err != nil {
			return fmt.Errorf("replaying op %d: %w", done, err)
		}
	}
	if done < n {
		fmt.Fprintf(os.Stderr, "%s: trace replay stopped at %d of %d ops after %s\n", w.Name, done, n, traceBudget)
	}
	us := perOpMin(tr.spans)
	p50 := func(name string) float64 { return median(values(us[name])) }
	sum := func(name string) (s float64) {
		for _, v := range us[name] {
			s += v
		}
		return s
	}

	set("dcs.parse_us", p50("dcs.parse"))
	set("dcs.compile_us", p50("dcs.compile"))
	set("plan.exec_answer_us", p50("plan.exec_answer"))
	set("plan.exec_traced_us", p50("plan.exec_traced"))
	set("provenance.highlight_self_us", max(0, p50("provenance.highlight")-p50("plan.exec_traced")))
	set("provenance.sample_us", p50("provenance.sample"))
	set("utterance.utter_us", p50("utterance.utter"))
	set("sqlgen.translate_us", p50("sqlgen.translate"))
	set("render.jsongrid_us", p50("render.jsongrid"))
	set("export.build_us", p50("export.build"))
	if whole := sum("export.build"); whole > 0 {
		stages := sum("provenance.highlight") + sum("provenance.sample") + sum("utterance.utter") + sum("sqlgen.translate") + sum("render.jsongrid")
		set("export.stage_sum_ratio", stages/whole)
		if ratio := stages / whole; ratio < 0.95 || ratio > 1.05 {
			fmt.Fprintf(os.Stderr, "%s: stage spans sum to %.3f of export.build, expected 1 +- 0.05\n", w.Name, ratio)
		}
	}
	set("semparse.parse_us", p50("semparse.parse"))
	set("semparse.parse_p99_us", quantile(values(us["semparse.parse"]), 0.99))
	set("server.encode_us", p50("server.encode"))
	set("engine.hit_ns", 1e3*p50("engine.hit"))
	set("engine.miss_us", p50("engine.miss"))
	stageSum := p50("dcs.parse") + p50("dcs.compile") + p50("export.build") + p50("semparse.parse")
	if len(us["export.build"]) == 0 {
		stageSum += p50("plan.exec_answer")
	}
	set("engine.miss_overhead_us", p50("engine.miss")-stageSum)
	if q := r.counts["batch_queries"]; q != nil && q.sum > 0 {
		set("engine.batch_us_per_query", sum("engine.batch")/q.sum)
	}
	for metric, name := range map[string]string{
		"server.resp_bytes_per_op":         "resp_bytes",
		"engine.hit_allocs_per_op":         "hit_allocs",
		"engine.miss_allocs_per_op":        "miss_allocs",
		"engine.miss_bytes_per_op":         "miss_bytes",
		"dcs.parse_allocs_per_op":          "parse_allocs",
		"dcs.compile_allocs_per_op":        "compile_allocs",
		"plan.exec_allocs_per_op":          "exec_allocs",
		"provenance.cells_per_op":          "prov_cells",
		"render.grid_cells_per_op":         "grid_cells",
		"semparse.candidates_per_question": "candidates",
		"semparse.allocs_per_question":     "semparse_allocs",
	} {
		if m := r.counts[name]; m != nil {
			set(metric, m.value())
		}
	}
	if rows := r.counts["scan_rows"]; rows != nil {
		set("plan.scan_mrows_per_s", rows.sum/max(sum("plan.scan"), 1e-9))
		set("plan.scan_serial_mrows_per_s", rows.sum/max(sum("plan.scan_serial"), 1e-9))
	}
	if reach := r.counts["zone_morsels"]; reach != nil && reach.sum > 0 {
		set("plan.morsels_skipped_ratio", r.counts["zone_skipped"].sum/reach.sum)
		set("plan.zone_range_us", p50("plan.zone_range"))
	}
	// The server's own share of a round trip: what the client saw minus
	// what the engine needs for the same ops.
	var equiv []float64
	for op, names := range r.equiv {
		total := 0.0
		for _, name := range names {
			total += us[name][op]
		}
		equiv = append(equiv, total)
	}
	if len(equiv) > 0 {
		set("server.http_overhead_us", 1000*res.PerLayer["client.p50_ms"].Value-median(equiv))
	}
	set("client.trace_overhead_ratio", traceOverhead(tr.spans))

	if err := storageProbes(w, tr, dir, set); err != nil {
		return err
	}
	res.trace = &traceFile{Spans: tr.spans, SelfNs: selfTimes(tr.spans)}
	return nil
}

// traceFile is one workload's entry in the -trace-out file.
type traceFile struct {
	Spans  []span  `json:"spans"`
	SelfNs []int64 `json:"self_ns"`
}

// writeTraces writes the spans of every traced run, by workload.
func writeTraces(path string, runs []*result) error {
	byWorkload := map[string]*traceFile{}
	for _, r := range runs {
		if r.trace != nil {
			byWorkload[r.Workload] = r.trace
		}
	}
	b, err := json.Marshal(byWorkload)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func newReplay(w *workload, tr *tracer, dir string) (*replay, error) {
	r := &replay{w: w, tr: tr, ctx: context.Background(), counts: map[string]*mean{}, equiv: map[int][]string{}, hot: w.HitLo > 0.5}
	r.enc = json.NewEncoder(&r.encBuf)
	r.enc.SetIndent("", "  ")
	tables, err := buildTables(w.corpus())
	if err != nil {
		return nil, err
	}
	for i := range r.eng {
		opts := engine.Options{}
		if w.Reads != nil {
			// The mutate replay applies its mutations for real, to a
			// durable engine configured as the server is.
			opts.DataDir = filepath.Join(dir, fmt.Sprintf("trace-engine-%d", i))
			opts.CheckpointBytes = 131072
		}
		e, err := engine.Open(opts)
		if err != nil {
			return nil, err
		}
		r.eng[i] = e
		// Tables are immutable, so the engines share them.
		for _, t := range tables {
			if _, err := e.RegisterTable(t); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

func (r *replay) close() {
	for _, e := range r.eng {
		if e != nil {
			_ = e.Close() // the data dir is about to be removed
		}
	}
}

// op replays op i of the stream, traceReps times.
func (r *replay) op(i int) error {
	o := &r.w.Ops[i%len(r.w.Ops)]
	if r.w.Reads != nil {
		// mutate: apply the mutation to every engine, then replay the read.
		for rep, e := range r.eng {
			r.tr.rep = rep
			var err error
			r.tr.do("engine.mutation", func() { err = applyMutation(e, o) })
			if err != nil {
				return err
			}
		}
		if o.Class == classPrimary {
			r.equiv[i] = []string{"engine.mutation"}
		}
		o = &r.w.Reads[i%len(r.w.Reads)]
	}
	for rep := 0; rep < traceReps; rep++ {
		r.tr.rep = rep
		var err error
		r.tr.do("op", func() {
			switch o.Kind {
			case kindExplain:
				err = r.explain(rep, o)
			case kindAnswer:
				err = r.answer(rep, o)
			case kindAsk:
				err = r.ask(rep, o)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func applyMutation(e *engine.Engine, o *op) error {
	var err error
	switch o.Kind {
	case kindRegister:
		_, err = e.RegisterRaw(o.Table, o.Cols, o.Rows)
	case kindAppend:
		_, err = e.AppendRows(o.Table, o.Rows)
	case kindDrop:
		_, _, err = e.DropTable(o.Table)
	}
	return err
}

// encode times the JSON encoding of a response value as the server
// does it: one indented document.
func (r *replay) encode(first bool, v any) {
	r.tr.do("server.encode", func() {
		r.encBuf.Reset()
		_ = r.enc.Encode(v) // engine outputs always encode
	})
	if first {
		r.count("resp_bytes", float64(r.encBuf.Len()))
	}
}

type explainResponse struct {
	*engine.Explanation
	Cached bool `json:"cached"`
}

type answerResponse struct {
	*engine.Answer
	Cached bool `json:"cached"`
}

// stages runs the explain pipeline of one query stage by stage, then as
// the one call the engine makes, and checks the two agree.
func (r *replay) stages(first bool, t *table.Table, query, want string) error {
	var (
		q   dcs.Expr
		c   *dcs.Compiled
		h   *provenance.Highlights
		res *dcs.Result
		doc *export.ExplanationJSON
		err error
	)
	r.tr.do("dcs.parse", func() { q, err = dcs.Parse(query) })
	if err != nil {
		return err
	}
	r.tr.do("dcs.compile", func() { c, err = dcs.Compile(q, t) })
	if err != nil {
		return err
	}
	r.tr.do("plan.exec_traced", func() { _, err = c.ExecuteWithCtx(r.ctx, t, provenance.NewCellTracer()) })
	if err != nil {
		return err
	}
	r.tr.do("plan.exec_answer", func() { _, err = c.ExecuteWithCtx(r.ctx, t, plan.Noop{}) })
	if err != nil {
		return err
	}
	r.tr.do("provenance.highlight", func() { h, res, err = provenance.HighlightCompiledCtx(r.ctx, c, t) })
	if err != nil {
		return err
	}
	var rows []int
	sampled := t.NumRows() > sampleThreshold
	if sampled {
		r.tr.do("provenance.sample", func() { rows = provenance.Sample(q, t, h) })
	}
	var utter string
	r.tr.do("utterance.utter", func() { utter = utterance.Utter(q) })
	r.tr.do("sqlgen.translate", func() { _, _ = sqlgen.TranslateSQL(q) }) // queries outside the SQL fragment are expected
	var grid render.Grid
	r.tr.do("render.jsongrid", func() { grid = render.JSONGrid(t, h, rows, sampled) })
	r.tr.do("export.build", func() { doc, _, err = export.BuildCompiledCtx(r.ctx, c, t, sampleThreshold) })
	if err != nil {
		return err
	}
	if doc.Utterance != utter || doc.Result != res.String() || len(doc.Table.Cells) != len(grid.Cells) {
		return fmt.Errorf("%q: staged pipeline and export.Build disagree", query)
	}
	if want != "" && doc.Result != want {
		return fmt.Errorf("%q: in-process result %q, the harness computed %q", query, doc.Result, want)
	}
	if first {
		objs, _ := mallocs(func() { _, _ = dcs.Parse(query) })
		r.count("parse_allocs", objs)
		objs, _ = mallocs(func() { _, _ = dcs.Compile(q, t) })
		r.count("compile_allocs", objs)
		objs, _ = mallocs(func() { _, _ = c.ExecuteWithCtx(r.ctx, t, provenance.NewCellTracer()) })
		r.count("exec_allocs", objs)
		cells := 0
		for _, n := range h.CountByMarking() {
			cells += n
		}
		r.count("prov_cells", float64(cells))
		r.count("grid_cells", float64(len(grid.Cells)*t.NumCols()))
	}
	return nil
}

func (r *replay) explain(rep int, o *op) error {
	e, first := r.eng[rep], rep == 0
	t, _, ok := e.Table(o.Table)
	if !ok {
		return fmt.Errorf("table %s is not registered", o.Table)
	}
	if err := r.stages(first, t, o.Query, o.Want); err != nil {
		return err
	}
	var (
		ex     *engine.Explanation
		cached bool
		err    error
	)
	run := func() { ex, cached, err = e.ExplainCached(r.ctx, o.Table, o.Query) }
	if first {
		objs, bytes := mallocs(func() { r.tr.do("engine.miss", run) })
		if !cached {
			r.count("miss_allocs", objs)
			r.count("miss_bytes", bytes)
		}
	} else {
		r.tr.do("engine.miss", run)
	}
	if err != nil {
		return err
	}
	// In the hot stream most ops repeat an earlier one, so the engine
	// may already hold the result; only true misses count as such.
	if cached {
		last := &r.tr.spans[len(r.tr.spans)-1]
		last.Name = "engine.hit"
	}
	run = func() { _, _, err = e.ExplainCached(r.ctx, o.Table, o.Query) }
	if first {
		objs, _ := mallocs(func() { r.tr.do("engine.hit", run) })
		r.count("hit_allocs", objs)
	} else {
		r.tr.do("engine.hit", run)
	}
	r.encode(first, explainResponse{ex, true})
	if o.Class == classPrimary && r.w.Reads == nil {
		// The loopback pass serves the hot workload from the result
		// cache and every other one from the miss path.
		if r.hot || cached {
			r.equiv[r.tr.op] = []string{"engine.hit"}
		} else {
			r.equiv[r.tr.op] = []string{"engine.miss"}
		}
	}
	return err
}

func (r *replay) answer(rep int, o *op) error {
	e, first := r.eng[rep], rep == 0
	t, _, ok := e.Table(o.Table)
	if !ok {
		return fmt.Errorf("table %s is not registered", o.Table)
	}
	var (
		q   dcs.Expr
		c   *dcs.Compiled
		res *dcs.Result
		err error
	)
	r.tr.do("dcs.parse", func() { q, err = dcs.Parse(o.Query) })
	if err != nil {
		return err
	}
	r.tr.do("dcs.compile", func() { c, err = dcs.Compile(q, t) })
	if err != nil {
		return err
	}
	r.tr.do("plan.exec_answer", func() { res, err = c.ExecuteWithCtx(r.ctx, t, plan.Noop{}) })
	if err != nil {
		return err
	}
	if o.Want != "" && res.String() != o.Want {
		return fmt.Errorf("%q: in-process result %q, the harness computed %q", o.Query, res, o.Want)
	}
	if o.Scan > 0 {
		// Scan throughput with the executor's default workers and with
		// one: the spans carry the time, scan_rows the rows behind it.
		r.tr.do("plan.scan", func() { _, _ = c.ExecuteWithCtx(r.ctx, t, plan.Noop{}) })
		prev := plan.SetExecWorkers(1)
		r.tr.do("plan.scan_serial", func() { _, _ = c.ExecuteWithCtx(r.ctx, t, plan.Noop{}) })
		plan.SetExecWorkers(prev)
		if first {
			r.count("scan_rows", float64(o.Scan))
		}
	} else if strings.Contains(o.Query, "Tick") {
		// The zone-map path: Tick cannot be indexed, so its ranges are
		// answered morsel by morsel under the zone verdicts.
		skipped0, short0 := plan.SkipStats()
		r.tr.do("plan.zone_range", func() { _, _ = c.ExecuteWithCtx(r.ctx, t, plan.Noop{}) })
		skipped1, short1 := plan.SkipStats()
		if first {
			// Two comparisons, each consulting every zone of the column.
			r.count("zone_skipped", float64(skipped1-skipped0+short1-short0))
			r.count("zone_morsels", float64(2*((t.NumRows()+morselLen-1)/morselLen)))
		}
	}
	if first {
		objs, _ := mallocs(func() { _, _ = c.ExecuteWithCtx(r.ctx, t, plan.Noop{}) })
		r.count("exec_allocs", objs)
		objs, _ = mallocs(func() { _, _ = dcs.Parse(o.Query) })
		r.count("parse_allocs", objs)
		objs, _ = mallocs(func() { _, _ = dcs.Compile(q, t) })
		r.count("compile_allocs", objs)
	}
	var ans *engine.Answer
	run := func() { ans, _, err = e.ExplainAnswer(r.ctx, o.Table, o.Query) }
	if first {
		objs, bytes := mallocs(func() { r.tr.do("engine.miss", run) })
		r.count("miss_allocs", objs)
		r.count("miss_bytes", bytes)
	} else {
		r.tr.do("engine.miss", run)
	}
	if err != nil {
		return err
	}
	run = func() { _, _, err = e.ExplainAnswer(r.ctx, o.Table, o.Query) }
	if first {
		objs, _ := mallocs(func() { r.tr.do("engine.hit", run) })
		r.count("hit_allocs", objs)
	} else {
		r.tr.do("engine.hit", run)
	}
	r.encode(first, answerResponse{ans, true})
	if o.Class == classPrimary {
		r.equiv[r.tr.op] = []string{"engine.miss"}
	}
	return err
}

func (r *replay) ask(rep int, o *op) error {
	e, first := r.eng[rep], rep == 0
	snap, ok := e.Store().Get(o.Table)
	if !ok {
		return fmt.Errorf("table %s is not registered", o.Table)
	}
	ncand := 0
	r.tr.do("semparse.parse", func() { ncand = len(snap.Parser().ParseAll(o.Query, snap.Table())) })
	if first {
		objs, _ := mallocs(func() { snap.Parser().ParseAll(o.Query, snap.Table()) })
		r.count("semparse_allocs", objs)
		r.count("candidates", float64(ncand))
	}
	var (
		cands []engine.RankedCandidate
		err   error
	)
	r.tr.do("engine.miss", func() { cands, err = e.ParseQuestion(r.ctx, o.Table, o.Query, 7) })
	if err != nil {
		return err
	}
	if len(cands) == 0 {
		return fmt.Errorf("%q: no candidates", o.Query)
	}
	r.encode(first, map[string]any{"question": o.Query, "candidates": cands})
	reqs := make([]engine.Request, len(cands))
	for i, c := range cands {
		reqs[i] = engine.Request{Table: o.Table, Query: c.Query}
	}
	var results []engine.BatchResult
	r.tr.do("engine.batch", func() { results = e.ExplainBatch(r.ctx, reqs) })
	for i, res := range results {
		if res.Err != nil {
			return fmt.Errorf("%q candidate %d: %w", o.Query, i, res.Err)
		}
	}
	if first {
		r.count("batch_queries", float64(len(reqs)))
		// The stage spans of an ask op are those of its top candidate.
		if err := r.stages(true, snap.Table(), cands[0].Query, ""); err != nil {
			return err
		}
	}
	r.equiv[r.tr.op] = []string{"engine.miss", "engine.batch"}
	return nil
}

// traceOverhead estimates what recording cost the replay: the time of
// the replayed ops over that time less the spans' own cost, the latter
// measured on empty spans.
func traceOverhead(spans []span) float64 {
	const n = 100000
	scratch := newTracer()
	scratch.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		scratch.do("empty", func() {})
	}
	perSpan := float64(time.Since(start)) / n
	var covered float64
	for _, s := range spans {
		if s.Parent < 0 {
			covered += float64(s.End - s.Start)
		}
	}
	if work := covered - perSpan*float64(len(spans)); work > 0 {
		return covered / work
	}
	return 0
}

// ---- storage probes ----

// storageProbes times the layers below the query path on the workload's
// own tables: building and indexing tables, appending to them, the
// store in memory and on disk, the log and the segment files.
func storageProbes(w *workload, tr *tracer, dir string, set func(string, float64)) error {
	corpus := w.corpus()
	probe := corpus[:min(len(corpus), probeTables)]
	tr.op, tr.rep = -1, 0
	var (
		tables    []*table.Table
		newUs     float64
		krows     float64
		cells     float64
		userTotal int64
	)
	for _, td := range corpus {
		var t *table.Table
		var err error
		before := len(tr.spans)
		tr.do("table.new", func() { t, err = table.New(td.Name, td.Columns, td.Rows) })
		if err != nil {
			return err
		}
		newUs += float64(tr.spans[before].End-tr.spans[before].Start) / 1e3
		krows += float64(len(td.Rows)) / 1e3
		cells += float64(len(td.Rows) * len(td.Columns))
		userTotal += userBytes(td.Columns, td.Rows)
		tables = append(tables, t)
	}
	set("table.new_us_per_krow", newUs/krows)

	before := len(tr.spans)
	tr.do("table.index_build", func() {
		for _, t := range tables {
			for c := 0; c < t.NumCols(); c++ {
				t.ColumnZones(c)
				if t.ColumnAllNumeric(c) {
					t.NumericSortedRows(c)
				}
			}
		}
	})
	set("table.index_build_ms", float64(tr.spans[before].End-tr.spans[before].Start)/1e6)
	var resident int64
	for _, t := range tables {
		resident += t.BaseBytes() + t.DerivedBytes()
	}
	set("table.bytes_per_cell", float64(resident)/cells)

	// Appends: 8 rows, copies of the table's first rows.
	extra := func(td *tableData) [][]string { return td.Rows[:min(mutBatchRows, len(td.Rows))] }
	timeEach := func(name string, fn func(i int, td *tableData) error) (float64, error) {
		var us []float64
		for i, td := range probe {
			var err error
			at := len(tr.spans)
			tr.do(name, func() { err = fn(i, td) })
			if err != nil {
				return 0, fmt.Errorf("%s on %s: %w", name, td.Name, err)
			}
			us = append(us, float64(tr.spans[at].End-tr.spans[at].Start)/1e3)
		}
		return median(us), nil
	}
	v, err := timeEach("table.append", func(i int, td *tableData) error {
		_, err := tables[i].Append(extra(td))
		return err
	})
	if err != nil {
		return err
	}
	set("table.append_us", v)

	// The store in memory.
	mem := store.New(store.Options{})
	for _, t := range tables {
		if _, err := mem.Register(t); err != nil {
			return err
		}
	}
	const gets = 20000
	at := len(tr.spans)
	tr.do("store.snapshot", func() {
		for i := 0; i < gets; i++ {
			mem.Get(corpus[i%len(corpus)].Name)
		}
	})
	set("store.snapshot_ns", float64(tr.spans[at].End-tr.spans[at].Start)/gets)
	if v, err = timeEach("store.append", func(_ int, td *tableData) error {
		_, err := mem.Append(td.Name, extra(td))
		return err
	}); err != nil {
		return err
	}
	set("store.append_us", v)

	// The store on disk: registration fills the log, a checkpoint turns
	// it into segments, a reopen reads them back.
	dataDir := filepath.Join(dir, "probe-store")
	dur, err := store.Open(store.Options{}, store.DurableOptions{Dir: dataDir, CheckpointInterval: -1, CheckpointBytes: -1})
	if err != nil {
		return err
	}
	for _, t := range tables {
		if _, err := dur.Register(t); err != nil {
			return err
		}
	}
	logs, _ := filepath.Glob(filepath.Join(dataDir, "wal-*.log"))
	var logBytes int64
	for _, path := range logs {
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		at := len(tr.spans)
		tr.do("wal.scan", func() { _, err = wal.Scan(path) })
		if err != nil {
			return err
		}
		logBytes += info.Size()
		if d := tr.spans[at].End - tr.spans[at].Start; info.Size() > 0 && d > 0 {
			set("wal.scan_mb_s", float64(info.Size())/1e6/(float64(d)/1e9))
		}
	}
	set("wal.bytes_per_user_byte", float64(logBytes)/float64(userTotal))
	if v, err = timeEach("store.append_durable", func(_ int, td *tableData) error {
		_, err := dur.Append(td.Name, extra(td))
		return err
	}); err != nil {
		return err
	}
	set("store.append_durable_us", v)
	at = len(tr.spans)
	tr.do("store.checkpoint", func() { err = dur.Checkpoint() })
	if err != nil {
		return err
	}
	set("store.checkpoint_ms", float64(tr.spans[at].End-tr.spans[at].Start)/1e6)
	if err := dur.Close(); err != nil {
		return err
	}
	at = len(tr.spans)
	var reopened *store.Store
	tr.do("store.open", func() {
		reopened, err = store.Open(store.Options{}, store.DurableOptions{Dir: dataDir, CheckpointInterval: -1, CheckpointBytes: -1})
	})
	if err != nil {
		return err
	}
	set("store.open_ms", float64(tr.spans[at].End-tr.spans[at].Start)/1e6)
	if reopened.Len() != len(tables) {
		return fmt.Errorf("store.Open recovered %d of %d tables", reopened.Len(), len(tables))
	}
	if err := reopened.Close(); err != nil {
		return err
	}

	// The log alone: 8-row records, every append synced.
	logPath := filepath.Join(dir, "probe.wal")
	log, _, err := wal.Open(logPath, -1)
	if err != nil {
		return err
	}
	if v, err = timeEach("wal.append", func(_ int, td *tableData) error {
		var payload []byte
		for _, row := range extra(td) {
			payload = append(payload, strings.Join(row, "\x00")...)
		}
		return log.Append(1, payload)
	}); err != nil {
		return err
	}
	set("wal.append_us", v)
	if err := log.Close(); err != nil {
		return err
	}

	// Segment files, one per table.
	var segBytes, writeNs, readNs int64
	for i, t := range tables {
		path := filepath.Join(dir, fmt.Sprintf("probe-%d.seg", i))
		meta := segment.Meta{Name: t.Name(), Gen: uint64(i + 1), Version: "probe", Columns: t.Columns(), Rows: t.NumRows()}
		at := len(tr.spans)
		tr.do("segment.write", func() { err = segment.Write(path, meta, t.RawRows(), t.ZoneSnapshot()) })
		if err != nil {
			return err
		}
		writeNs += tr.spans[at].End - tr.spans[at].Start
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		segBytes += info.Size()
		at = len(tr.spans)
		tr.do("segment.read", func() { _, _, _, err = segment.Read(path) })
		if err != nil {
			return err
		}
		readNs += tr.spans[at].End - tr.spans[at].Start
	}
	set("segment.write_mb_s", float64(userTotal)/1e6/(float64(writeNs)/1e9))
	set("segment.read_mb_s", float64(userTotal)/1e6/(float64(readNs)/1e9))
	set("segment.bytes_per_user_byte", float64(segBytes)/float64(userTotal))
	return nil
}
