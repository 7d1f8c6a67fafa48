package semparse

import (
	"math"
	"sort"
	"strings"
	"testing"

	"nlexplain/internal/dcs"
	"nlexplain/internal/table"
)

func olympics(t testing.TB) *table.Table {
	t.Helper()
	return table.MustNew("olympics",
		[]string{"Year", "Country", "City"},
		[][]string{
			{"1896", "Greece", "Athens"},
			{"1900", "France", "Paris"},
			{"2004", "Greece", "Athens"},
			{"2008", "China", "Beijing"},
			{"2012", "UK", "London"},
			{"2016", "Brazil", "Rio de Janeiro"},
		})
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Greece held its last Olympics, in what YEAR?")
	want := []string{"greece", "held", "its", "last", "olympics", "in", "what", "year"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tokens = %v, want %v", got, want)
		}
	}
}

func TestTokenizeKeepsInnerPunct(t *testing.T) {
	got := Tokenize("the USL A-League and O'Brien's 2.5 rating")
	joined := strings.Join(got, " ")
	for _, w := range []string{"a-league", "o'brien's", "2.5"} {
		if !strings.Contains(joined, w) {
			t.Errorf("tokens %v missing %q", got, w)
		}
	}
}

func TestAnalyzeTriggers(t *testing.T) {
	tab := olympics(t)
	cases := map[string]Trigger{
		"how many games were in Athens?":                  TrigCount,
		"what is the difference between Greece and UK?":   TrigDiff,
		"which city has the highest year?":                TrigMax,
		"what was the last year?":                         TrigLast,
		"what is the average year?":                       TrigAvg,
		"what is the total of years?":                     TrigSum,
		"which years are more than 2000?":                 TrigMore,
		"what city comes right after Athens?":             TrigAfter,
		"which city was recorded the most?":               TrigMost,
		"what is the earliest games?":                     TrigFirst,
		"which rows are under 2000?":                      TrigLess,
		"what city appears right above the row for 2012?": TrigBefore,
	}
	for q, trig := range cases {
		a := Analyze(q, tab)
		if !a.Trigs[trig] {
			t.Errorf("Analyze(%q) missing trigger %s (got %v)", q, trig, a.Trigs)
		}
	}
}

func TestAnalyzeWh(t *testing.T) {
	tab := olympics(t)
	cases := map[string]string{
		"who won?":            "who",
		"how many?":           "how-many",
		"when was it?":        "when",
		"which city is it?":   "which",
		"what year was that?": "what",
	}
	for q, wh := range cases {
		if a := Analyze(q, tab); a.Wh != wh {
			t.Errorf("Wh(%q) = %q, want %q", q, a.Wh, wh)
		}
	}
}

func TestAnalyzeEntityAnchors(t *testing.T) {
	tab := olympics(t)
	a := Analyze("Greece held its last Olympics in what year?", tab)
	found := false
	for _, e := range a.EntityAnchors {
		if e.Val.String() == "Greece" && tab.Column(e.Col) == "Country" {
			found = true
		}
	}
	if !found {
		t.Errorf("anchors = %+v, want Greece@Country", a.EntityAnchors)
	}
}

func TestAnalyzeMultiTokenEntity(t *testing.T) {
	tab := olympics(t)
	a := Analyze("when did Rio de Janeiro host?", tab)
	found := false
	for _, e := range a.EntityAnchors {
		if strings.EqualFold(e.Val.String(), "Rio de Janeiro") && e.Tokens == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("anchors = %+v, want 3-token Rio de Janeiro", a.EntityAnchors)
	}
}

func TestAnalyzeColumnAnchors(t *testing.T) {
	tab := olympics(t)
	a := Analyze("what year did China host?", tab)
	foundYear := false
	for _, c := range a.ColumnAnchors {
		if tab.Column(c) == "Year" {
			foundYear = true
		}
	}
	if !foundYear {
		t.Errorf("column anchors = %v, want Year", a.ColumnAnchors)
	}
}

func TestAnalyzeNumbers(t *testing.T) {
	tab := olympics(t)
	a := Analyze("which years are more than 2004?", tab)
	if len(a.Numbers) != 1 || a.Numbers[0] != 2004 {
		t.Errorf("numbers = %v", a.Numbers)
	}
}

func TestGenerateCandidatesContainsGold(t *testing.T) {
	tab := olympics(t)
	cases := []struct {
		question string
		gold     string
	}{
		{"what year did Greece last host the games?", "R[Year].argmax(Country.Greece, Index)"},
		{"how many games were held in Athens?", "count(City.Athens)"},
		{"what city hosted in 2008?", "R[City].Year.2008"},
		{"which country has the highest year?", "R[Country].argmax(Record, Year)"},
		{"what is the city right after Beijing?", "R[City].R[Prev].City.Beijing"},
		{"how many more games in Athens than in London?", "sub(count(City.Athens), count(City.London))"},
		{"which city appears the most?", "argmax(Values[City], R[λx.count(City.x)])"},
	}
	for _, c := range cases {
		q := Analyze(c.question, tab)
		cands := GenerateCandidates(q, tab, nil)
		found := false
		for _, cand := range cands {
			if cand.Key() == c.gold {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("candidates for %q missing gold %q (%d candidates)", c.question, c.gold, len(cands))
		}
	}
}

func TestCandidatesAreDeduplicated(t *testing.T) {
	tab := olympics(t)
	q := Analyze("what year did Greece host in Athens?", tab)
	cands := GenerateCandidates(q, tab, nil)
	seen := make(map[string]bool)
	for _, c := range cands {
		if seen[c.Key()] {
			t.Fatalf("duplicate candidate %q", c.Key())
		}
		seen[c.Key()] = true
	}
	if len(cands) == 0 || len(cands) > maxCandidates {
		t.Errorf("candidate count = %d", len(cands))
	}
}

func TestCandidatesAllExecutable(t *testing.T) {
	tab := olympics(t)
	q := Analyze("what is the difference in year between Athens and Paris?", tab)
	for _, c := range GenerateCandidates(q, tab, nil) {
		if c.Result == nil {
			t.Errorf("candidate %q has no result", c.Key())
		}
		if dcs.Check(c.Query, tab) != nil {
			t.Errorf("candidate %q fails Check", c.Key())
		}
	}
}

func TestFeaturesTriggersAgreement(t *testing.T) {
	tab := olympics(t)
	q := Analyze("how many games were in Athens?", tab)
	goldFeatures := featurize(q, dcs.MustParse("count(City.Athens)"), nil)
	if goldFeatures.Get("agree:count") != 1 {
		t.Errorf("count agreement feature missing: %v", goldFeatures)
	}
	badFeatures := featurize(q, dcs.MustParse("R[Year].City.Athens"), nil)
	if badFeatures.Get("miss:count") != 1 {
		t.Errorf("count miss feature missing: %v", badFeatures)
	}
}

func TestFeaturesSuperlativeFlip(t *testing.T) {
	tab := olympics(t)
	q := Analyze("which country has the highest year?", tab)
	flipped := featurize(q, dcs.MustParse("R[Country].argmin(Record, Year)"), nil)
	if flipped.Get("flip:superlative") != 1 {
		t.Errorf("flip feature missing: %v", flipped)
	}
	right := featurize(q, dcs.MustParse("R[Country].argmax(Record, Year)"), nil)
	if right.Get("agree:argmax") != 1 {
		t.Errorf("agree feature missing: %v", right)
	}
}

func TestParseRankingPrefersGroundedQueries(t *testing.T) {
	tab := olympics(t)
	p := NewParser()
	cands := p.Parse("how many games were held in Athens?", tab)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	// With heuristic weights the top candidates should at least mention
	// Athens (entity grounding dominates).
	top := cands[0]
	if !strings.Contains(top.Key(), "Athens") {
		t.Errorf("top candidate %q not grounded in Athens", top.Key())
	}
}

func TestDistributionSumsToOne(t *testing.T) {
	tab := olympics(t)
	p := NewParser()
	cands := p.ParseAll("what year did Greece host?", tab)
	probs := Distribution(cands)
	sum := 0.0
	for _, pr := range probs {
		if pr < 0 {
			t.Fatalf("negative probability %v", pr)
		}
		sum += pr
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestTrainingImprovesRanking(t *testing.T) {
	tab := olympics(t)
	// A tiny curriculum: count questions must outrank lookups.
	examples := []*Example{
		{ID: 0, Question: "how many games were held in Athens?", Table: tab,
			Answer: "2", GoldQuery: "count(City.Athens)"},
		{ID: 1, Question: "how many games did Greece host?", Table: tab,
			Answer: "2", GoldQuery: "count(Country.Greece)"},
		{ID: 2, Question: "how many games were in Beijing?", Table: tab,
			Answer: "1", GoldQuery: "count(City.Beijing)"},
		{ID: 3, Question: "how many games were in Paris?", Table: tab,
			Answer: "1", GoldQuery: "count(City.Paris)"},
	}
	p := NewParser()
	before := p.Evaluate(examples, 7)
	p.Train(examples, TrainOptions{Epochs: 10, LearningRate: 0.5, L1: 1e-5, Seed: 7})
	after := p.Evaluate(examples, 7)
	// Weak (answer) supervision cannot separate the gold query from
	// spurious queries with the same answer (the paper's Figure 8
	// problem — see TestAnnotationTraining for the fix), but it must
	// lift the gold query into the top-k and improve its mean rank.
	if after.MRR() < before.MRR() {
		t.Errorf("training hurt MRR: %.3f -> %.3f", before.MRR(), after.MRR())
	}
	if after.Bound() < 1.0 {
		t.Errorf("trained top-7 bound = %.2f, want 1.0", after.Bound())
	}
	if after.MRR() < 0.4 {
		t.Errorf("trained MRR = %.3f, want >= 0.4", after.MRR())
	}
}

func TestAnnotationTraining(t *testing.T) {
	tab := olympics(t)
	// Both queries answer "2004"; only the annotation distinguishes them
	// (the Figure 8 situation).
	gold := "R[Year].argmax(Country.Greece, Index)"
	ex := &Example{
		ID: 0, Question: "Greece held its last Olympics in what year?", Table: tab,
		Answer:      "2004",
		GoldQuery:   gold,
		Annotations: map[string]bool{gold: true},
	}
	p := NewParser()
	p.Train([]*Example{ex}, TrainOptions{Epochs: 12, LearningRate: 0.5, L1: 1e-5, Seed: 3})
	cands := p.ParseAll(ex.Question, tab)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if cands[0].Key() != gold {
		t.Errorf("after annotation training top = %q, want %q", cands[0].Key(), gold)
	}
}

func TestMetricsArithmetic(t *testing.T) {
	m := &Metrics{Examples: 4, Correct: 1, AnswerCorrect: 2, SumRR: 2.0, BoundK: 3, K: 7}
	if m.Correctness() != 0.25 || m.MRR() != 0.5 || m.Bound() != 0.75 {
		t.Errorf("metrics: %+v", m)
	}
	empty := &Metrics{}
	if empty.Correctness() != 0 || empty.MRR() != 0 || empty.Bound() != 0 {
		t.Error("empty metrics should be zero")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	p := NewParser()
	q := p.Clone()
	q.Weights["bias"] = 42
	if p.Weights["bias"] == 42 {
		t.Error("Clone shares weight map")
	}
}

func TestTopFeatures(t *testing.T) {
	p := NewParser()
	top := topFeatures(p, 3)
	if len(top) != 3 {
		t.Fatalf("topFeatures = %v", top)
	}
	if top[0] != "emptyResult" { // |−2.0| is the largest initial weight
		t.Errorf("top feature = %q", top[0])
	}
}

func TestParseTopKTruncation(t *testing.T) {
	tab := olympics(t)
	p := NewParser()
	p.TopK = 3
	if got := p.Parse("what year did Greece host?", tab); len(got) > 3 {
		t.Errorf("Parse returned %d candidates, want <= 3", len(got))
	}
}

// featurize extracts the feature vector φ(x, T, z) of Eq. 4: indicator
// and density features relating the question's lexical cues to the
// query's operators, columns, entities and result. A root operator or
// wh-word outside the closed feature set contributes no feature.
func featurize(q *Question, z dcs.Expr, res *dcs.Result) Features {
	f := newFeaturizer(q, 0)
	return f.features(f.describe(z), res)
}

// topFeatures returns the n largest-magnitude weights.
func topFeatures(p *Parser, n int) []string {
	keys := make([]string, 0, len(p.Weights))
	for k := range p.Weights {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		ai, aj := math.Abs(p.Weights[keys[i]]), math.Abs(p.Weights[keys[j]])
		if ai != aj {
			return ai > aj
		}
		return keys[i] < keys[j]
	})
	if len(keys) > n {
		keys = keys[:n]
	}
	return keys
}
