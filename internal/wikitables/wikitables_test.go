package wikitables

import (
	"math/rand"
	"strings"
	"testing"

	"nlexplain/internal/dcs"
	"nlexplain/internal/semparse"
)

func TestGenTableShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range Domains {
		tab := GenTable(rng, d, 0)
		if tab.NumRows() < 8 {
			t.Errorf("%s: %d rows, want >= 8 (WikiTableQuestions criterion)", d.Name, tab.NumRows())
		}
		if tab.NumCols() != len(d.Columns) {
			t.Errorf("%s: %d cols, want %d", d.Name, tab.NumCols(), len(d.Columns))
		}
		for i, c := range d.Columns {
			if NumericKind(c.Kind) {
				v := tab.Value(0, i)
				if !v.IsNumeric() {
					t.Errorf("%s.%s: expected numeric values, got %v", d.Name, c.Name, v)
				}
			}
		}
	}
}

func TestEveryDomainHasTextAndNumericColumns(t *testing.T) {
	for _, d := range Domains {
		if len(textCols(d)) == 0 {
			t.Errorf("%s has no text columns", d.Name)
		}
		if len(numCols(d)) == 0 {
			t.Errorf("%s has no numeric columns", d.Name)
		}
	}
}

func TestTemplatesCoverOperatorClasses(t *testing.T) {
	var have []string
	for _, tpl := range templates {
		have = append(have, tpl.name)
	}
	names := strings.Join(have, ",")
	for _, want := range []string{
		"lookup", "count", "sum", "avg", "max-scalar", "argmax-records",
		"index-superlative", "diff-values", "diff-counts", "comparison",
		"prev-next", "intersect", "union-count", "most-frequent", "compare-values",
	} {
		if !strings.Contains(names, want) {
			t.Errorf("template %q missing (have %s)", want, names)
		}
	}
}

func TestTemplatesProduceValidGold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	built := make(map[string]int)
	for trial := 0; trial < 400; trial++ {
		d := Domains[rng.Intn(len(Domains))]
		tab := GenTable(rng, d, trial)
		tmpl := templates[rng.Intn(len(templates))]
		q, gold, ok := tmpl.build(rng, tab, d)
		if !ok {
			continue
		}
		built[tmpl.name]++
		if strings.TrimSpace(q) == "" {
			t.Errorf("%s produced empty question", tmpl.name)
		}
		if err := dcs.Check(gold, tab); err != nil {
			t.Errorf("%s gold query fails check: %v", tmpl.name, err)
		}
		// Gold must round-trip through the surface syntax (the dataset
		// stores canonical strings).
		re, err := dcs.Parse(gold.String())
		if err != nil {
			t.Errorf("%s gold %q does not re-parse: %v", tmpl.name, gold, err)
		} else if re.String() != gold.String() {
			t.Errorf("%s gold unstable round trip: %q vs %q", tmpl.name, gold, re)
		}
	}
	for _, tmpl := range templates {
		if built[tmpl.name] == 0 {
			t.Errorf("template %s never built in 400 trials", tmpl.name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	opt := Options{Tables: 10, QuestionsPerTable: 4, TestFraction: 0.2, Hardness: 0.5, Seed: 99}
	a := Generate(opt)
	b := Generate(opt)
	if len(a.Train) != len(b.Train) || len(a.Test) != len(b.Test) {
		t.Fatal("same seed produced different dataset sizes")
	}
	for i := range a.Train {
		if a.Train[i].Question != b.Train[i].Question || a.Train[i].GoldQuery != b.Train[i].GoldQuery {
			t.Fatalf("example %d differs between runs", i)
		}
	}
}

func TestGenerateSplitDisjointTables(t *testing.T) {
	ds := Generate(Options{Tables: 20, QuestionsPerTable: 3, TestFraction: 0.25, Seed: 5})
	trainNames := make(map[string]bool)
	for _, tab := range ds.TrainTables {
		trainNames[tab.Name()] = true
	}
	for _, tab := range ds.TestTables {
		if trainNames[tab.Name()] {
			t.Fatalf("table %s appears in both splits", tab.Name())
		}
	}
	for _, ex := range ds.Test {
		if trainNames[ex.Table.Name()] {
			t.Fatalf("test example %d uses a training table", ex.ID)
		}
	}
	wantTest := 5
	if len(ds.TestTables) != wantTest || len(ds.TrainTables) != 15 {
		t.Errorf("split = %d/%d tables", len(ds.TrainTables), len(ds.TestTables))
	}
}

func TestGenerateAnswersMatchGold(t *testing.T) {
	ds := Generate(Options{Tables: 12, QuestionsPerTable: 5, TestFraction: 0.2, Hardness: 1.0, Seed: 11})
	all := append(append([]*semparse.Example(nil), ds.Train...), ds.Test...)
	if len(all) < 40 {
		t.Fatalf("only %d examples generated", len(all))
	}
	for _, ex := range all {
		gold, err := dcs.Parse(ex.GoldQuery)
		if err != nil {
			t.Fatalf("example %d gold does not parse: %v", ex.ID, err)
		}
		res, err := dcs.Execute(gold, ex.Table)
		if err != nil {
			t.Fatalf("example %d gold does not execute: %v", ex.ID, err)
		}
		if res.AnswerKey() != ex.Answer {
			t.Errorf("example %d: stored answer %q, executed %q", ex.ID, ex.Answer, res.AnswerKey())
		}
		if res.Empty() {
			t.Errorf("example %d has an empty answer", ex.ID)
		}
	}
}

func TestObfuscateRemovesGrounding(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	changed := 0
	for i := 0; i < 50; i++ {
		q := "what is the difference in Gold between New Caledonia and Tonga?"
		o := obfuscate(rng, q)
		if o != q {
			changed++
		}
	}
	if changed < 25 {
		t.Errorf("obfuscate changed only %d/50 questions", changed)
	}
}

func TestTypo(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if got := typo(rng, "ab"); got != "ab" {
		t.Errorf("short words must not change: %q", got)
	}
	w := "Greece"
	diff := 0
	for i := 0; i < 20; i++ {
		if typo(rng, w) != w {
			diff++
		}
	}
	if diff == 0 {
		t.Error("typo never changed a 6-letter word in 20 tries")
	}
}
