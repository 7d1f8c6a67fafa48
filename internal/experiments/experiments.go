// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7) on the synthetic substrate, printing paper
// value vs measured value side by side. EXPERIMENTS.md records one full
// run. All experiments are seeded and deterministic.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"nlexplain/internal/dcs"
	"nlexplain/internal/provenance"
	"nlexplain/internal/semparse"
	"nlexplain/internal/sqlgen"
	"nlexplain/internal/study"
	"nlexplain/internal/utterance"
	"nlexplain/internal/wikitables"
)

// Config scales and seeds the experiment suite. The paper's study used
// 405 distinct questions (Table 4), 700 question instances (Table 6),
// 1,650 annotated + 11K total training examples (Table 9); Full mode
// matches those counts, Fast mode divides them by ~8 for quick runs.
type Config struct {
	Seed int64
	Full bool
}

// DefaultConfig runs at reduced scale (minutes, not hours).
func DefaultConfig() Config { return Config{Seed: 2019, Full: false} }

func (c Config) scale(full, fast int) int {
	if c.Full {
		return full
	}
	return fast
}

// Env is the shared experimental environment: dataset, trained parser,
// simulation. Building it is the expensive step, so experiments share
// one Env.
type Env struct {
	Config  Config
	Dataset *wikitables.Dataset
	Parser  *semparse.Parser
}

// NewEnv generates the dataset and trains the baseline parser on the
// full (answer-supervised) training split, mirroring the deployed
// baseline of Section 6.1.
func NewEnv(cfg Config) *Env {
	opt := wikitables.DefaultOptions()
	opt.Seed = cfg.Seed
	opt.Tables = cfg.scale(1200, 150)
	opt.QuestionsPerTable = 10
	ds := wikitables.Generate(opt)

	p := semparse.NewParser()
	topt := semparse.DefaultTrainOptions()
	topt.Seed = cfg.Seed
	p.Train(ds.Train, topt)
	return &Env{Config: cfg, Dataset: ds, Parser: p}
}

// Table4Result reproduces Table 4: user-study success rates.
type Table4Result struct {
	Questions    int
	Explanations int
	Success      float64
}

// RunTable4 shows each distinct test question (with top-7 explanations)
// to one simulated worker and measures judgement success.
func (e *Env) RunTable4() Table4Result {
	n := e.Config.scale(405, 100)
	questions := e.Dataset.Test
	if len(questions) > n {
		questions = questions[:n]
	}
	sim := study.NewSimulation(e.Parser, e.Config.Seed+4)
	outcomes := sim.Run(questions, 1, len(questions), true)
	r := study.Aggregate(outcomes)
	expl := 0
	for _, o := range outcomes {
		expl += o.Shown
	}
	return Table4Result{Questions: len(outcomes), Explanations: expl, Success: r.Success}
}

// String renders the paper-vs-measured comparison.
func (r Table4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: User Study - Success Rates\n")
	fmt.Fprintf(&b, "  distinct questions   paper: 405      measured: %d\n", r.Questions)
	fmt.Fprintf(&b, "  explanations shown   paper: 2,835    measured: %d\n", r.Explanations)
	fmt.Fprintf(&b, "  avg. success         paper: 78.4%%    measured: %.1f%%\n", 100*r.Success)
	return b.String()
}

// Table5Result reproduces Table 5: per-worker work time in minutes for
// 20 questions, with and without highlights.
type Table5Result struct {
	WithHighlights study.WorkTimes
	UtterancesOnly study.WorkTimes
}

// RunTable5 splits 20 workers into two groups of 10 (the paper's
// design) and measures total time on 20 questions each.
func (e *Env) RunTable5() Table5Result {
	perWorker := 20
	workers := 10
	sim := study.NewSimulation(e.Parser, e.Config.Seed+5)
	with := sim.Run(e.Dataset.Test, workers, perWorker, true)
	without := sim.Run(e.Dataset.Test, workers, perWorker, false)
	return Table5Result{
		WithHighlights: study.SummarizeWorkTimes(with, perWorker),
		UtterancesOnly: study.SummarizeWorkTimes(without, perWorker),
	}
}

// String renders the comparison.
func (r Table5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: User Work-Time (minutes) on 20 questions\n")
	fmt.Fprintf(&b, "  %-26s %-28s measured: avg %.1fm median %.1fm min %.1fm max %.1fm\n",
		"Utterances + Highlights", "paper: avg 16.2m median 16.6m",
		r.WithHighlights.Avg, r.WithHighlights.Median, r.WithHighlights.Min, r.WithHighlights.Max)
	fmt.Fprintf(&b, "  %-26s %-28s measured: avg %.1fm median %.1fm min %.1fm max %.1fm\n",
		"Utterances", "paper: avg 24.7m median 20.7m",
		r.UtterancesOnly.Avg, r.UtterancesOnly.Median, r.UtterancesOnly.Min, r.UtterancesOnly.Max)
	fmt.Fprintf(&b, "  avg reduction        paper: 34%%      measured: %.0f%%\n",
		100*(1-r.WithHighlights.Avg/r.UtterancesOnly.Avg))
	return b.String()
}

// Table6Result reproduces Table 6: correctness of parser / users /
// hybrid / bound with χ² significance against the parser baseline.
type Table6Result struct {
	Rates              study.Rates
	ChiUser, ChiHybrid float64
	SigUser, SigHybrid bool
}

// RunTable6 runs 700 question instances (35 workers × 20 questions in
// the paper) through the interactive deployment.
func (e *Env) RunTable6() Table6Result {
	workers := e.Config.scale(35, 10)
	perWorker := 20
	sim := study.NewSimulation(e.Parser, e.Config.Seed+6)
	outcomes := sim.Run(e.Dataset.Test, workers, perWorker, true)
	r := study.Aggregate(outcomes)
	chiUser := study.ChiSquare(r.UserN, r.N, r.ParserN, r.N)
	chiHybrid := study.ChiSquare(r.HybridN, r.N, r.ParserN, r.N)
	return Table6Result{
		Rates:     r,
		ChiUser:   chiUser,
		ChiHybrid: chiHybrid,
		SigUser:   study.SignificantAt01(chiUser),
		SigHybrid: study.SignificantAt01(chiHybrid),
	}
}

// String renders the comparison.
func (r Table6Result) String() string {
	var b strings.Builder
	mark := func(sig bool) string {
		if sig {
			return "†"
		}
		return " "
	}
	fmt.Fprintf(&b, "Table 6: User Study - Correctness Results (n=%d)\n", r.Rates.N)
	fmt.Fprintf(&b, "  Parser   paper: 37.1%%   measured: %.1f%%\n", 100*r.Rates.Parser)
	fmt.Fprintf(&b, "  Users    paper: 44.6%%†  measured: %.1f%%%s (χ²=%.1f)\n", 100*r.Rates.User, mark(r.SigUser), r.ChiUser)
	fmt.Fprintf(&b, "  Hybrid   paper: 48.7%%†  measured: %.1f%%%s (χ²=%.1f)\n", 100*r.Rates.Hybrid, mark(r.SigHybrid), r.ChiHybrid)
	fmt.Fprintf(&b, "  Bound    paper: 56.0%%   measured: %.1f%%\n", 100*r.Rates.Bound)
	return b.String()
}

// Table7Result reproduces Table 7: average per-question generation
// times for candidates, utterances and highlights over the test set.
type Table7Result struct {
	Questions     int
	CandidateSec  float64
	UtteranceSec  float64
	HighlightsSec float64
}

// RunTable7 measures wall-clock averages on this machine. Absolute
// numbers differ from the paper's Xeon+SEMPRE testbed by construction;
// the shape to check is utterance-generation being far cheaper than
// candidate and highlight generation.
func (e *Env) RunTable7() Table7Result {
	n := e.Config.scale(len(e.Dataset.Test), 60)
	if n > len(e.Dataset.Test) {
		n = len(e.Dataset.Test)
	}
	questions := e.Dataset.Test[:n]
	// Fresh parser so candidate generation is not cache-amortized.
	fresh := semparse.NewParser()
	fresh.Weights = e.Parser.Weights

	var candTotal, utterTotal, highlightTotal time.Duration
	utterances := 0
	for _, ex := range questions {
		start := time.Now()
		q := semparse.Analyze(ex.Question, ex.Table)
		cands := semparse.GenerateCandidates(q, ex.Table, nil)
		candTotal += time.Since(start)
		if len(cands) > 7 {
			cands = cands[:7]
		}
		start = time.Now()
		for _, c := range cands {
			_ = utterance.Utter(c.Query)
			utterances++
		}
		utterTotal += time.Since(start)
		start = time.Now()
		for _, c := range cands {
			if h, err := provenance.Highlight(c.Query, ex.Table); err == nil {
				_ = h
			}
		}
		highlightTotal += time.Since(start)
	}
	return Table7Result{
		Questions:     n,
		CandidateSec:  candTotal.Seconds() / float64(n),
		UtteranceSec:  utterTotal.Seconds() / float64(n),
		HighlightsSec: highlightTotal.Seconds() / float64(n),
	}
}

// String renders the comparison.
func (r Table7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 7: Avg. Execution Time (seconds per question, %d questions)\n", r.Questions)
	fmt.Fprintf(&b, "  Cand. Gen.      paper: 1.22   measured: %.5f\n", r.CandidateSec)
	fmt.Fprintf(&b, "  Utter. Gen.     paper: 0.22   measured: %.5f\n", r.UtteranceSec)
	fmt.Fprintf(&b, "  Highlights Gen. paper: 1.36   measured: %.5f\n", r.HighlightsSec)
	fmt.Fprintf(&b, "  shape check: utterances cheapest, highlights ≈ candidates: %v\n",
		r.UtteranceSec < r.CandidateSec && r.UtteranceSec < r.HighlightsSec)
	return b.String()
}

// Table9Result reproduces Table 9: the effect of annotation feedback on
// retraining, at two training-set sizes, averaged over three splits.
type Table9Result struct {
	Rows []study.FeedbackResult
}

// RunTable9 collects 3-vote majority annotations on a slice of the
// training set via simulated workers, then trains parsers with and
// without them at two training-set sizes (the paper's 1,650 / 11,000),
// evaluating query correctness and MRR on held-out annotated examples.
func (e *Env) RunTable9() Table9Result {
	smallN := e.Config.scale(1650, 240)
	devN := e.Config.scale(418, 80)
	sim := study.NewSimulation(e.Parser, e.Config.Seed+9)

	pool := e.Dataset.Train
	if len(pool) < smallN+devN {
		smallN = len(pool) * 3 / 4
		devN = len(pool) - smallN
	}

	var rows [4]study.FeedbackResult
	splits := 3
	for s := 0; s < splits; s++ {
		// Rotate the split (the paper averages three train/dev splits).
		off := (s * devN) % len(pool)
		rot := append(append([]*semparse.Example(nil), pool[off:]...), pool[:off]...)
		dev := rot[:devN]
		small := rot[devN : devN+smallN]
		full := rot[devN:]

		annotated := sim.CollectAnnotations(small, 3, 2)
		devAnnotated := sim.CollectAnnotations(dev, 3, 2)
		if len(devAnnotated) == 0 {
			continue
		}

		opt := semparse.DefaultTrainOptions()
		opt.Seed = e.Config.Seed + int64(s)
		base := semparse.NewParser()
		base.ShareCandidateCache(e.Parser)

		withS, withoutS := study.TrainOnFeedback(base, small, annotated, devAnnotated, opt)
		withF, withoutF := study.TrainOnFeedback(base, full, annotated, devAnnotated, opt)

		acc := func(dst *study.FeedbackResult, src study.FeedbackResult) {
			dst.TrainExamples = src.TrainExamples
			dst.Annotations = src.Annotations
			dst.Correctness += src.Correctness / float64(splits)
			dst.MRR += src.MRR / float64(splits)
		}
		acc(&rows[0], withS)
		acc(&rows[1], withoutS)
		acc(&rows[2], withF)
		acc(&rows[3], withoutF)
	}
	return Table9Result{Rows: rows[:]}
}

// String renders the comparison.
func (r Table9Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 9: Effect of user feedback on correctness (3-split average)\n")
	paper := []string{
		"paper: 1650 train / 1650 ann -> 49.8%, MRR 0.586",
		"paper: 1650 train /    0 ann -> 41.8%, MRR 0.499",
		"paper: 11000 train / 1650 ann -> 51.6%, MRR 0.600",
		"paper: 11000 train /    0 ann -> 49.5%, MRR 0.570",
	}
	for i, row := range r.Rows {
		fmt.Fprintf(&b, "  %-46s measured: %5d train / %4d ann -> %.1f%%, MRR %.3f\n",
			paper[i], row.TrainExamples, row.Annotations, 100*row.Correctness, row.MRR)
	}
	if len(r.Rows) == 4 {
		fmt.Fprintf(&b, "  shape check: annotations help at both scales: %v (small +%.1f pts, full +%.1f pts)\n",
			r.Rows[0].Correctness > r.Rows[1].Correctness && r.Rows[2].Correctness > r.Rows[3].Correctness,
			100*(r.Rows[0].Correctness-r.Rows[1].Correctness),
			100*(r.Rows[2].Correctness-r.Rows[3].Correctness))
	}
	return b.String()
}

// Table10Row is one operator row of Table 10: the lambda DCS example,
// its SQL translation and the executor-equivalence verdict.
type Table10Row struct {
	Operator   string
	Query      string
	SQL        string
	Equivalent bool
}

// RunTable10 regenerates Table 10 on the Figure 1 example table.
func RunTable10() []Table10Row {
	rows := []struct{ op, q string }{
		{"Column Records", "City.Athens"},
		{"Column Values", "R[Year].City.Athens"},
		{"Values in Preceding Records", "R[Year].Prev.City.Athens"},
		{"Values in Following Records", "R[Year].R[Prev].City.Athens"},
		{"Aggregation on Values", "sum(R[Year].City.Athens)"},
		{"Difference of Values", "sub(R[Year].City.London, R[Year].City.Beijing)"},
		{"Difference of Value Occurrences", "sub(count(City.Athens), count(City.London))"},
		{"Union of Values", "(R[City].Country.China or R[City].Country.Greece)"},
		{"Intersection of Records", "(City.London u Country.UK)"},
		{"Records with Highest Value", "argmax(Record, Year)"},
		{"Value in Record with Highest Index", "R[Year].argmax(City.Athens, Index)"},
		{"Value with Most Appearances", "argmax(Values[City], R[λx.count(City.x)])"},
		{"Comparing Values", "argmax((London or Beijing), R[λx.R[Year].City.x])"},
	}
	tab := FigureTable(1)
	var out []Table10Row
	for _, r := range rows {
		e := dcs.MustParse(r.q)
		sql, err := sqlgen.TranslateSQL(e)
		row := Table10Row{Operator: r.op, Query: r.q, SQL: sql}
		if err == nil {
			row.Equivalent = equivalentOnTable(e, sql, tab)
		}
		out = append(out, row)
	}
	return out
}
