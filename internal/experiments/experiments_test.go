package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"nlexplain/internal/dcs"
)

// sharedEnv is built once: Env construction trains the baseline parser.
var sharedEnv *Env

func env(t *testing.T) *Env {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment environment is slow; skipped in -short")
	}
	if sharedEnv == nil {
		cfg := DefaultConfig()
		sharedEnv = NewEnv(cfg)
	}
	return sharedEnv
}

func TestTable4Shape(t *testing.T) {
	r := env(t).RunTable4()
	if r.Questions == 0 || r.Explanations < r.Questions {
		t.Fatalf("degenerate run: %+v", r)
	}
	// Paper: 78.4% judgement success. Accept a band around it.
	if r.Success < 0.65 || r.Success > 0.92 {
		t.Errorf("success = %.3f, want ~0.784", r.Success)
	}
	s := r.String()
	if !strings.Contains(s, "78.4%") {
		t.Errorf("rendered table missing paper value:\n%s", s)
	}
}

func TestTable5Shape(t *testing.T) {
	r := env(t).RunTable5()
	if r.WithHighlights.Avg >= r.UtterancesOnly.Avg {
		t.Errorf("highlights must cut work time: %.1f vs %.1f", r.WithHighlights.Avg, r.UtterancesOnly.Avg)
	}
	reduction := 1 - r.WithHighlights.Avg/r.UtterancesOnly.Avg
	if reduction < 0.2 || reduction > 0.5 {
		t.Errorf("reduction = %.2f, paper reports 34%%", reduction)
	}
	if r.WithHighlights.Min <= 0 || r.WithHighlights.Max < r.WithHighlights.Min {
		t.Errorf("work-time summary malformed: %+v", r.WithHighlights)
	}
}

func TestTable6Shape(t *testing.T) {
	r := env(t).RunTable6()
	// The paper's ordering: parser < users < hybrid <= bound.
	if !(r.Rates.Parser < r.Rates.Hybrid) {
		t.Errorf("hybrid %.3f must beat parser %.3f", r.Rates.Hybrid, r.Rates.Parser)
	}
	if r.Rates.Hybrid > r.Rates.Bound {
		t.Errorf("hybrid %.3f exceeds bound %.3f", r.Rates.Hybrid, r.Rates.Bound)
	}
	// Bound in the neighbourhood of the paper's 56%.
	if r.Rates.Bound < 0.40 || r.Rates.Bound > 0.75 {
		t.Errorf("bound = %.3f, want ~0.56", r.Rates.Bound)
	}
	// Hybrid improvement over parser should be significant, as in the
	// paper (χ² at 0.01, 1 df).
	if !r.SigHybrid {
		t.Errorf("hybrid improvement not significant: χ²=%.2f", r.ChiHybrid)
	}
}

// TestTable7Shape checks the shape on each stage's least time over three
// runs: a pause (a collection, a descheduling) only ever adds time, and
// one landing in the few utterances of a run must not invert it.
func TestTable7Shape(t *testing.T) {
	e := env(t)
	r := e.RunTable7()
	for i := 1; i < 3; i++ {
		next := e.RunTable7()
		r.CandidateSec = min(r.CandidateSec, next.CandidateSec)
		r.UtteranceSec = min(r.UtteranceSec, next.UtteranceSec)
		r.HighlightsSec = min(r.HighlightsSec, next.HighlightsSec)
	}
	if r.UtteranceSec >= r.CandidateSec {
		t.Errorf("utterance generation (%.5fs) should be cheaper than candidate generation (%.5fs)",
			r.UtteranceSec, r.CandidateSec)
	}
	if r.UtteranceSec >= r.HighlightsSec {
		t.Errorf("utterance generation (%.5fs) should be cheaper than highlight generation (%.5fs)",
			r.UtteranceSec, r.HighlightsSec)
	}
}

func TestCandidateFamilies(t *testing.T) {
	e := env(t)
	r := e.RunCandidateFamilies(7)
	if len(r.Rows) != len(candidateFamilies) {
		t.Errorf("%d families reported, the generator builds %d:\n%s", len(r.Rows), len(candidateFamilies), r)
	}
	candidates, shown := 0, 0
	for _, row := range r.Rows {
		candidates += row.Candidates
		shown += row.Shown
		if row.Shown > row.Candidates || row.QuestionsShown > row.Questions || row.Questions > r.Questions {
			t.Errorf("inconsistent row: %+v", row)
		}
	}
	if candidates != r.Candidates || shown > r.Questions*r.K || shown == 0 {
		t.Errorf("rows hold %d candidates and %d shown, report says %d candidates over %d questions", candidates, shown, r.Candidates, r.Questions)
	}
	for query, family := range map[string]string{
		"City.Athens":                                 "records",
		"R[Year].City.Athens":                         "projection",
		"R[City].R[Prev].City.Beijing":                "prev-next",
		"R[Country].argmax(Record, Year)":             "superlative",
		"R[Year].argmax(Country.Greece, Index)":       "index-superlative",
		"count(City.Athens)":                          "aggregate",
		"sub(count(City.Athens), count(City.London))": "difference",
	} {
		if got := candidateFamily(dcs.MustParse(query)); got != family {
			t.Errorf("candidateFamily(%s) = %s, want %s", query, got, family)
		}
	}
}

func TestTable8Divergences(t *testing.T) {
	rows := env(t).RunTable8(5)
	if len(rows) == 0 {
		t.Fatal("no divergence examples found; user choices never differ from the baseline")
	}
	for _, r := range rows {
		if r.UserChoice == r.ParserBaseline {
			t.Errorf("row is not a divergence: %+v", r)
		}
		if r.Question == "" || r.UserChoice == "" || r.ParserBaseline == "" {
			t.Errorf("malformed row: %+v", r)
		}
	}
	s := FormatTable8(rows)
	if !strings.Contains(s, "user choice:") || !strings.Contains(s, "parser baseline:") {
		t.Errorf("formatting broken:\n%s", s)
	}
}

func TestTable9Shape(t *testing.T) {
	r := env(t).RunTable9()
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	withSmall, withoutSmall := r.Rows[0], r.Rows[1]
	withFull, withoutFull := r.Rows[2], r.Rows[3]
	if withSmall.Annotations == 0 {
		t.Fatal("no annotations collected")
	}
	// The headline effect: annotations improve correctness at the small
	// scale (paper: +8 points) and do not hurt at the full scale.
	if withSmall.Correctness <= withoutSmall.Correctness {
		t.Errorf("annotations did not help at small scale: %.3f vs %.3f",
			withSmall.Correctness, withoutSmall.Correctness)
	}
	if withFull.Correctness+0.03 < withoutFull.Correctness {
		t.Errorf("annotations hurt at full scale: %.3f vs %.3f",
			withFull.Correctness, withoutFull.Correctness)
	}
	// MRR moves with correctness (paper: 0.499→0.586).
	if withSmall.MRR <= withoutSmall.MRR {
		t.Errorf("annotations did not improve MRR: %.3f vs %.3f", withSmall.MRR, withoutSmall.MRR)
	}
}

func TestTable10AllEquivalent(t *testing.T) {
	rows := RunTable10()
	if len(rows) != 13 {
		t.Fatalf("Table 10 has %d rows, want 13", len(rows))
	}
	for _, r := range rows {
		if r.SQL == "" {
			t.Errorf("%s: no SQL generated", r.Operator)
		}
		if !r.Equivalent {
			t.Errorf("%s (%s): SQL translation diverges", r.Operator, r.Query)
		}
	}
	s := FormatTable10(rows)
	if strings.Count(s, "[OK") != 13 {
		t.Errorf("formatted table:\n%s", s)
	}
}

// TestFiguresRender renders every figure of the gallery and pins each
// rendering by SHA-256; the failure message prints the new value.
func TestFiguresRender(t *testing.T) {
	for _, n := range FigureNumbers() {
		s, err := RenderFigure(n)
		if err != nil {
			t.Errorf("figure %d: %v", n, err)
			continue
		}
		sum := sha256.Sum256([]byte(s))
		if got := hex.EncodeToString(sum[:]); got != figureGolden[n] {
			t.Errorf("figure %d renders to %s, golden %s", n, got, figureGolden[n])
		}
		if !strings.Contains(s, "Figure") {
			t.Errorf("figure %d output malformed:\n%s", n, s)
		}
		if n != 3 && !strings.Contains(s, "utterance:") {
			t.Errorf("figure %d missing utterance:\n%s", n, s)
		}
	}
}

// figureGolden holds the SHA-256 of each RenderFigure(n).
var figureGolden = map[int]string{
	1:  "167fca2c916eed873cca46ddc24392efa1a7a7081b8df7625f6a8e4199b7d9bd",
	3:  "6434153332d18cc15435512a453ad8b2004993b625a4eaa38c04c6f3404ff9ef",
	4:  "574eafcb3016dda497256419ec5ca1f5d1e795b05bc5c2e8df4423cec0b72779",
	5:  "0ff271c4b91a84063b41036738c045540dfc3556baf862e356d66060efe24101",
	6:  "eec1d8006cb52b20d0c0b4abf0dfdcefd1c6735e2889943acc41efdaf5bba696",
	7:  "7e554b9545136c0f74e0f01b63917b18a851d94ff3fae3dfc16dd0135f9973cc",
	8:  "9fff820cf4693de748da7cc38c2a121e9cefc0c581371c1813fb01233fd6908c",
	9:  "b73a50d3ec0f74b5f83c81db04684e31562ba26d714063a83437130b35320e26",
	11: "95a0809be89c15ac923c66494ba3951c0b12d9e423423ec92541bccafad05d04",
	12: "f846728486eca7b2fe56107646c9550bf0098692a57a218e9bf4ddfe37cdf40d",
	13: "2dddf1e994e9bf5aad84b8cfcabef99b49cddeb5907bbd0931c6d6a87e1735c4",
	14: "056baf97d48c91216d5b87bca721b26c088a55440d4b6cf883cb904322271af8",
	15: "98f8ba4f5f1c5aca10b1c298ad0bfc5f02248b5dfb17e4328b2f320aba5926b6",
	16: "298f881dc76b305a22a3a6c39f09796d043586a9f70f8d331948ac9da6df58fc",
	17: "59ff35df49970dad984065b205a08166d3a547963c4771f020e0c9505726a302",
	18: "6ee10fddff13dffa1caf9b479ae30e3f567c302455b26a7251eb9dadf6eb4dc2",
	19: "cc76190538246e39e0671a313694ecaef0e777e7f389049ac1fb22a772496ee0",
	20: "a93cde3b9e92346f9c2157a88efe93d6f86a53da62037bb8d9eaea58880d4135",
	21: "9edb776991dea63b302ed52cedf9387a76147655ebe79d039c7b72a12b6f289e",
	22: "3b890ed30485d74b968b155358f33dc5690374dba30d5efaa84e9dacfdefdcf1",
}

func TestFigure7Samples(t *testing.T) {
	s, err := RenderFigure(7)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "20000 rows") {
		t.Errorf("figure 7 should mention the large table:\n%s", s)
	}
	// The rendering must be small despite the 20000-row table.
	if lines := strings.Count(s, "\n"); lines > 20 {
		t.Errorf("figure 7 rendering has %d lines; sampling failed", lines)
	}
}

func TestFigure8BothCandidatesAnswer2004(t *testing.T) {
	s, err := RenderFigure(8)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "maximum of values in column Year") ||
		!strings.Contains(s, "minimum of values in column Year") {
		t.Errorf("figure 8 must show both the correct and the spurious candidate:\n%s", s)
	}
}

func TestRenderFigureUnknown(t *testing.T) {
	if _, err := RenderFigure(2); err == nil {
		t.Error("figure 2 (architecture diagram) should not render")
	}
}
