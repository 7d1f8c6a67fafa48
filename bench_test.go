package nlexplain

// One benchmark per paper table and figure (see DESIGN.md §4), plus
// ablation benches for the design choices DESIGN.md §7 calls out.
// Custom metrics (correctness, bound, minutes, …) are attached to the
// benchmark output via b.ReportMetric, so `go test -bench .` regenerates
// the paper's numbers alongside Go's timing columns.

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"nlexplain/internal/dcs"
	"nlexplain/internal/experiments"
	"nlexplain/internal/minisql"
	"nlexplain/internal/oracle"
	"nlexplain/internal/plan"
	"nlexplain/internal/provenance"
	"nlexplain/internal/semparse"
	"nlexplain/internal/study"
	"nlexplain/internal/table"
	"nlexplain/internal/utterance"
	"nlexplain/internal/wikitables"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
)

func sharedBenchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv = experiments.NewEnv(experiments.DefaultConfig())
	})
	return benchEnv
}

// BenchmarkTable4UserSuccess regenerates Table 4 (user judgement
// success over explained candidates).
func BenchmarkTable4UserSuccess(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	var r experiments.Table4Result
	for i := 0; i < b.N; i++ {
		r = env.RunTable4()
	}
	b.ReportMetric(100*r.Success, "success_%")
	b.ReportMetric(float64(r.Explanations), "explanations")
}

// BenchmarkTable5WorkTime regenerates Table 5 (work time with vs
// without highlights).
func BenchmarkTable5WorkTime(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	var r experiments.Table5Result
	for i := 0; i < b.N; i++ {
		r = env.RunTable5()
	}
	b.ReportMetric(r.WithHighlights.Avg, "with_hl_min")
	b.ReportMetric(r.UtterancesOnly.Avg, "utter_only_min")
	b.ReportMetric(100*(1-r.WithHighlights.Avg/r.UtterancesOnly.Avg), "reduction_%")
}

// BenchmarkTable6Correctness regenerates Table 6 (parser / user /
// hybrid / bound correctness).
func BenchmarkTable6Correctness(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	var r experiments.Table6Result
	for i := 0; i < b.N; i++ {
		r = env.RunTable6()
	}
	b.ReportMetric(100*r.Rates.Parser, "parser_%")
	b.ReportMetric(100*r.Rates.User, "user_%")
	b.ReportMetric(100*r.Rates.Hybrid, "hybrid_%")
	b.ReportMetric(100*r.Rates.Bound, "bound_%")
}

// BenchmarkTable7CandidateGen times candidate generation per question
// (Table 7, column 1).
func BenchmarkTable7CandidateGen(b *testing.B) {
	env := sharedBenchEnv(b)
	questions := env.Dataset.Test
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := questions[i%len(questions)]
		q := semparse.Analyze(ex.Question, ex.Table)
		_ = semparse.GenerateCandidates(q, ex.Table, nil)
	}
}

// BenchmarkTable7UtteranceGen times utterance generation per candidate
// (Table 7, column 2).
func BenchmarkTable7UtteranceGen(b *testing.B) {
	env := sharedBenchEnv(b)
	ex := env.Dataset.Test[0]
	cands := env.Parser.Parse(ex.Question, ex.Table)
	if len(cands) == 0 {
		b.Skip("no candidates")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = utterance.Utter(cands[i%len(cands)].Query)
	}
}

// BenchmarkTable7HighlightsGen times highlight generation per candidate
// (Table 7, column 3).
func BenchmarkTable7HighlightsGen(b *testing.B) {
	env := sharedBenchEnv(b)
	ex := env.Dataset.Test[0]
	cands := env.Parser.Parse(ex.Question, ex.Table)
	if len(cands) == 0 {
		b.Skip("no candidates")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := provenance.Highlight(cands[i%len(cands)].Query, ex.Table); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable9Feedback regenerates Table 9 (training on annotation
// feedback vs answer supervision). This is the heaviest bench.
func BenchmarkTable9Feedback(b *testing.B) {
	env := sharedBenchEnv(b)
	b.ResetTimer()
	var r experiments.Table9Result
	for i := 0; i < b.N; i++ {
		r = env.RunTable9()
	}
	if len(r.Rows) == 4 {
		b.ReportMetric(100*r.Rows[0].Correctness, "with_ann_%")
		b.ReportMetric(100*r.Rows[1].Correctness, "without_ann_%")
		b.ReportMetric(r.Rows[0].MRR, "with_ann_mrr")
		b.ReportMetric(r.Rows[1].MRR, "without_ann_mrr")
	}
}

// BenchmarkTable10Translation regenerates Table 10 (operator-by-operator
// SQL translation + equivalence check).
func BenchmarkTable10Translation(b *testing.B) {
	var rows []experiments.Table10Row
	for i := 0; i < b.N; i++ {
		rows = experiments.RunTable10()
	}
	ok := 0
	for _, r := range rows {
		if r.Equivalent {
			ok++
		}
	}
	b.ReportMetric(float64(ok), "equivalent_ops")
}

// BenchmarkFigureGallery renders every figure of the paper (1, 3-9,
// 11-22): utterance + highlights + sampling.
func BenchmarkFigureGallery(b *testing.B) {
	nums := experiments.FigureNumbers()
	for i := 0; i < b.N; i++ {
		for _, n := range nums {
			if _, err := experiments.RenderFigure(n); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationTopK sweeps k (the number of explained candidates)
// and reports the correctness bound at each k — the paper's k=7 vs k=14
// argument (Section 7.2).
func BenchmarkAblationTopK(b *testing.B) {
	env := sharedBenchEnv(b)
	questions := env.Dataset.Test
	if len(questions) > 120 {
		questions = questions[:120]
	}
	for _, k := range []int{1, 3, 7, 14} {
		k := k
		b.Run(benchName("k", k), func(b *testing.B) {
			var bound float64
			for i := 0; i < b.N; i++ {
				m := env.Parser.Evaluate(questions, k)
				bound = m.Bound()
			}
			b.ReportMetric(100*bound, "bound_%")
		})
	}
}

// BenchmarkAblationHighlights toggles highlights in the worker model,
// quantifying their work-time effect (this is Table 5 as an ablation).
func BenchmarkAblationHighlights(b *testing.B) {
	env := sharedBenchEnv(b)
	for _, hl := range []bool{true, false} {
		hl := hl
		name := "with-highlights"
		if !hl {
			name = "utterances-only"
		}
		b.Run(name, func(b *testing.B) {
			var wt study.WorkTimes
			for i := 0; i < b.N; i++ {
				sim := study.NewSimulation(env.Parser, 5)
				wt = study.SummarizeWorkTimes(sim.Run(env.Dataset.Test, 10, 20, hl), 20)
			}
			b.ReportMetric(wt.Avg, "minutes")
		})
	}
}

// BenchmarkAblationFeatures zeroes one feature family at a time in the
// trained model and reports the dev-correctness drop — quantifying what
// each family of φ(x,T,z) contributes.
func BenchmarkAblationFeatures(b *testing.B) {
	env := sharedBenchEnv(b)
	dev := env.Dataset.Test
	if len(dev) > 120 {
		dev = dev[:120]
	}
	families := map[string][]string{
		"full":            nil,
		"no-triggers":     {"agree:", "miss:", "spur:", "flip:"},
		"no-grounding":    {"entityCoverage", "entitiesUngrounded", "numEntities"},
		"no-column-match": {"colCoverage", "colsUnmentioned"},
		"no-type-match":   {"wh="},
	}
	// Deterministic sub-bench order.
	for _, name := range []string{"full", "no-triggers", "no-grounding", "no-column-match", "no-type-match"} {
		prefixes := families[name]
		b.Run(name, func(b *testing.B) {
			var corr float64
			for i := 0; i < b.N; i++ {
				p := env.Parser.Clone()
				for w := range p.Weights {
					for _, pre := range prefixes {
						if len(w) >= len(pre) && w[:len(pre)] == pre {
							delete(p.Weights, w)
						}
					}
				}
				corr = p.Evaluate(dev, 7).Correctness()
			}
			b.ReportMetric(100*corr, "correct_%")
		})
	}
}

// BenchmarkAblationL1 sweeps the ℓ1 strength λ of Eq. 6 and reports dev
// correctness, the cross-validation the paper alludes to.
func BenchmarkAblationL1(b *testing.B) {
	env := sharedBenchEnv(b)
	train := env.Dataset.Train
	if len(train) > 300 {
		train = train[:300]
	}
	dev := env.Dataset.Test
	if len(dev) > 100 {
		dev = dev[:100]
	}
	for _, l1 := range []float64{0, 1e-4, 1e-2} {
		l1 := l1
		b.Run(benchNameF("lambda", l1), func(b *testing.B) {
			var corr float64
			for i := 0; i < b.N; i++ {
				p := semparse.NewParser()
				p.ShareCandidateCache(env.Parser)
				opt := semparse.DefaultTrainOptions()
				opt.Epochs = 2
				opt.L1 = l1
				p.Train(train, opt)
				corr = p.Evaluate(dev, 7).Correctness()
			}
			b.ReportMetric(100*corr, "correct_%")
		})
	}
}

// BenchmarkAblationDatasetHardness sweeps the dataset obfuscation rate,
// showing how linguistic variance drives the correctness bound down —
// the mechanism behind the paper's 56% bound.
func BenchmarkAblationDatasetHardness(b *testing.B) {
	for _, h := range []float64{0, 0.5, 1} {
		h := h
		b.Run(benchNameF("hardness", h), func(b *testing.B) {
			var bound float64
			for i := 0; i < b.N; i++ {
				opt := wikitables.DefaultOptions()
				opt.Tables = 40
				opt.QuestionsPerTable = 6
				opt.Hardness = h
				ds := wikitables.Generate(opt)
				p := semparse.NewParser()
				topt := semparse.DefaultTrainOptions()
				topt.Epochs = 2
				p.Train(ds.Train, topt)
				bound = p.Evaluate(ds.Test, 7).Bound()
			}
			b.ReportMetric(100*bound, "bound_%")
		})
	}
}

// planBenchCases are the superlative/comparative/join shapes the plan
// refactor targets, run over the 20k-row Figure 7 growth table so
// index and vectorization effects are visible above noise.
var planBenchCases = []struct{ name, query string }{
	{"superlative", "argmax(Record, Year)"},
	{"superlative-min", `argmin(Record, "Growth Rate")`},
	{"comparative", `"Growth Rate">2`},
	{"comparative-count", `count(Year>=2000)`},
	{"join-aggregate", "max(R[Year].Country.Madagascar)"},
}

var (
	planBenchTableOnce sync.Once
	planBenchTable     *table.Table
)

func sharedPlanBenchTable() *table.Table {
	planBenchTableOnce.Do(func() { planBenchTable = experiments.FigureTable(7) })
	return planBenchTable
}

// planWarmCases are the warm-cache benchmark queries, phrased over the
// allocation-gate table's schema (Nation/City/Year/Games/Result).
var planWarmCases = []struct{ name, query string }{
	{"lookup", "Nation.Greece"},
	{"superlative", "argmax(Record, Year)"},
	{"superlative-min", "argmin(Record, Games)"},
	{"comparative", "Games>150"},
	{"comparative-count", "count(Year>=2000)"},
	{"join-aggregate", "max(R[Year].Nation.Fiji)"},
}

const workloadBenchTableName = "wl_huge"

// workloadBenchTableVersion is the content version of the 2048-row
// allocation-gate table: TestEngineHitAllocs fails if the table the
// gates measure changes.
const workloadBenchTableVersion = "8eba29b313a7e6d1"

var (
	workloadBenchTableOnce sync.Once
	workloadBenchTable     *table.Table
)

// sharedWorkloadBenchTable is the allocation-gate reference table:
// 2048 seeded rows of five columns, two of them numeric. The 332 rows
// drawn and discarded first make it the exact table the gates' figures
// on record were measured on, which workloadBenchTableVersion pins.
func sharedWorkloadBenchTable() *table.Table {
	workloadBenchTableOnce.Do(func() {
		nations := []string{"Greece", "France", "China", "UK", "Brazil", "Fiji", "Tonga", "Samoa", "Nauru", "Tahiti"}
		cities := []string{"Athens", "Paris", "Beijing", "London", "Rio", "Suva", "Apia", "Sydney", "Tokyo", "Rome"}
		results := []string{"1st Round", "2nd Round", "3rd Round", "4th Round", "Did not qualify", "Final"}
		rng := rand.New(rand.NewSource(1))
		rows := make([][]string, 332+2048)
		for r := range rows {
			rows[r] = []string{
				nations[rng.Intn(len(nations))],
				cities[rng.Intn(len(cities))],
				strconv.Itoa(1896 + rng.Intn(40)*4),
				strconv.Itoa(rng.Intn(300)),
				results[rng.Intn(len(results))],
			}
		}
		workloadBenchTable = table.MustNew(workloadBenchTableName, []string{"Nation", "City", "Year", "Games", "Result"}, rows[332:])
	})
	return workloadBenchTable
}

// BenchmarkPlanExec times answer-only execution of precompiled plans
// (the warm-plan-cache steady state of the serving path) on the
// 2048-row allocation-gate table. allocs/op here is the metric
// TestPlanWarmAllocs gates: with the pooled executor arena it stays
// O(1) per query regardless of table size.
func BenchmarkPlanExec(b *testing.B) {
	tab := sharedWorkloadBenchTable()
	for _, c := range planWarmCases {
		compiled, err := dcs.Compile(dcs.MustParse(c.query), tab)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compiled.ExecuteWith(tab, plan.Noop{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPlanWarmAllocs is the allocation budget of the warm small-table
// path as a test rather than a benchmark column: answer-only execution
// of a precompiled plan on the 2048-row allocation-gate table costs at
// most 2 allocations (the Result and its one detached slice), whatever
// the executor does for big tables.
func TestPlanWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	tab := sharedWorkloadBenchTable()
	for _, c := range planWarmCases {
		compiled, err := dcs.Compile(dcs.MustParse(c.query), tab)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := compiled.ExecuteWith(tab, plan.Noop{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%s (%s): %.1f allocs/op, want <= 2", c.name, c.query, allocs)
		}
	}
}

// TestEngineHitAllocs is the allocation budget of the engine's warm
// path — all that explain_hot traffic runs below the HTTP layer: a
// cached ExplainCached or ExplainAnswer costs at most 2 allocations
// (the figure on record as engine.hit_allocs_per_op).
func TestEngineHitAllocs(t *testing.T) {
	e := NewEngine(EngineOptions{})
	info, err := e.RegisterTable(sharedWorkloadBenchTable())
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != workloadBenchTableVersion {
		t.Fatalf("allocation-gate table has version %s, want %s", info.Version, workloadBenchTableVersion)
	}
	ctx := context.Background()
	query := planWarmCases[0].query
	calls := map[string]func() (bool, error){
		"ExplainCached": func() (bool, error) {
			_, hit, err := e.ExplainCached(ctx, workloadBenchTableName, query)
			return hit, err
		},
		"ExplainAnswer": func() (bool, error) {
			_, hit, err := e.ExplainAnswer(ctx, workloadBenchTableName, query)
			return hit, err
		},
	}
	for name, call := range calls {
		if _, err := call(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if hit, err := call(); err != nil || !hit {
				t.Fatalf("%s: hit = %v, err = %v", name, hit, err)
			}
		})
		if allocs > 2 {
			t.Errorf("%s on a cached key: %.1f allocs/op, want <= 2", name, allocs)
		}
	}
}

// TestFailingQueryRunsOnce pins, without the clock, that a query which
// fails while it runs costs what the plan costs and no more: on a
// 131072-row table the failing form of each shape allocates within a
// small constant (the error and its message) of the same shape
// succeeding. A second evaluation to find out what to say — the
// tree-walking reference builds a map entry per selected record — is
// thousands of allocations and does not fit.
func TestFailingQueryRunsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rng := rand.New(rand.NewSource(7))
	nations := []string{"Greece", "France", "China", "UK", "Brazil", "Fiji"}
	rows := make([][]string, 1<<17)
	for i := range rows {
		rows[i] = []string{nations[rng.Intn(len(nations))], strconv.Itoa(rng.Intn(10)), strconv.Itoa(rng.Intn(5000))}
	}
	tab := table.MustNew("games", []string{"Nation", "Games", "Score"}, rows)
	allocs := func(query string, wantErr string) float64 {
		compiled, err := dcs.Compile(dcs.MustParse(query), tab)
		if err != nil {
			t.Fatal(err)
		}
		run := func() error {
			_, err := compiled.ExecuteWithCtx(context.Background(), tab, plan.Noop{})
			return err
		}
		// Rendered here, outside the count: Error() formats the query.
		got := ""
		if err := run(); err != nil {
			got = err.Error()
		}
		if got != wantErr {
			t.Fatalf("%s: error = %q, want %q", query, got, wantErr)
		}
		return testing.AllocsPerRun(5, func() { _ = run() })
	}
	for _, tc := range []struct{ ok, failing, failure string }{
		{"max(R[Score].Games>5)", "max(R[Score].Games>99)",
			"executing max(R[Score].Games>99): max over an empty set"},
		{"sum(R[Score].Games!=3)", "sum(R[Nation].Games!=3)",
			`executing sum(R[Nation].Games!=3): sum over non-numeric value "` + rows[0][0] + `"`},
		{"sub(max(R[Score].Games>=0), 1)", "sub(R[Score].Games>=0, 1)",
			"executing sub(R[Score].Games>=0, 1): left operand of sub must be a single value, got 5000"},
	} {
		ok, failing := allocs(tc.ok, ""), allocs(tc.failing, tc.failure)
		t.Logf("%s: %.0f allocs; %s: %.0f allocs", tc.ok, ok, tc.failing, failing)
		if failing > ok+5 {
			t.Errorf("%s fails in %.0f allocations, %s succeeds in %.0f: a failing query runs once, want at most 5 more", tc.failing, failing, tc.ok, ok)
		}
	}
}

// BenchmarkPlanExecCold times compile + answer-only execution (a plan
// cache miss) on the Figure 7 growth table — the shape the pre-arena
// BenchmarkPlanExec measured.
func BenchmarkPlanExecCold(b *testing.B) {
	tab := sharedPlanBenchTable()
	for _, c := range planBenchCases {
		q := dcs.MustParse(c.query)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dcs.ExecuteAnswer(q, tab); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInterpExec times the reference tree-walking interpreter
// (internal/oracle) on the same workload as BenchmarkPlanExecCold, so
// plan-vs-reference stays on record in bench.out.
func BenchmarkInterpExec(b *testing.B) {
	tab := sharedPlanBenchTable()
	for _, c := range planBenchCases {
		q := dcs.MustParse(c.query)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := oracle.Execute(q, tab); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecSQL times one mini-SQL execution on the Figure 7
// growth table: what checking a Table 10 translation costs there.
func BenchmarkExecSQL(b *testing.B) {
	tab := sharedPlanBenchTable()
	const src = `SELECT Country FROM T WHERE "Growth Rate" > 2 AND Year >= 2000`
	q, err := minisql.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := minisql.Exec(q, tab); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreExecute times raw lambda DCS execution of the running
// example (micro-benchmark for the executor).
func BenchmarkCoreExecute(b *testing.B) {
	tab := experiments.FigureTable(1)
	q := dcs.MustParse("max(R[Year].Country.Greece)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dcs.Execute(q, tab); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}

func benchNameF(prefix string, v float64) string {
	return prefix + "=" + strconv.FormatFloat(v, 'g', -1, 64)
}
