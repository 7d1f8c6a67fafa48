package nlexplain

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"nlexplain/internal/qrand"
)

func exampleTable(t testing.TB) *Table {
	t.Helper()
	tab, err := NewTable("olympics",
		[]string{"Year", "Country", "City"},
		[][]string{
			{"1896", "Greece", "Athens"},
			{"1900", "France", "Paris"},
			{"2004", "Greece", "Athens"},
			{"2008", "China", "Beijing"},
			{"2012", "UK", "London"},
			{"2016", "Brazil", "Rio de Janeiro"},
		})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestFacadeEndToEnd(t *testing.T) {
	tab := exampleTable(t)
	q, err := ParseQuery("max(R[Year].Country.Greece)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteQuery(q, tab)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != "2004" {
		t.Errorf("result = %s", res)
	}
	ex, err := Explain(q, tab)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Utterance, "maximum of values in column Year") {
		t.Errorf("utterance = %q", ex.Utterance)
	}
	if !strings.Contains(ex.SQL, "MAX(DISTINCT Year)") {
		t.Errorf("sql = %q", ex.SQL)
	}
	if ex.Result != res.String() || ex.SampleRows != nil {
		t.Errorf("result = %q, sample rows = %v; want %q and no sample on a small table", ex.Result, ex.SampleRows, res)
	}
	if !strings.Contains(ex.Text(), "**2004**") {
		t.Errorf("text rendering missing colored output:\n%s", ex.Text())
	}
	if !strings.Contains(ex.HTML(), `class="colored"`) {
		t.Error("HTML rendering missing colored class")
	}
	if !strings.Contains(ex.ANSI(), "\x1b[") {
		t.Error("ANSI rendering missing escapes")
	}
}

func TestFacadeCSV(t *testing.T) {
	tab, err := TableFromCSV("t", strings.NewReader("A,B\n1,x\n2,y\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 {
		t.Errorf("rows = %d", tab.NumRows())
	}
}

func TestFacadeDerive(t *testing.T) {
	q, _ := ParseQuery("count(City.Athens)")
	tree := Derive(q)
	if tree.Utterance != Utter(q) {
		t.Error("derivation yield must equal utterance")
	}
}

func TestExplainQuestion(t *testing.T) {
	tab := exampleTable(t)
	p := NewParser()
	out, err := ExplainQuestion(p, "how many games were held in Athens?", tab)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 || len(out) > 7 {
		t.Fatalf("candidates = %d", len(out))
	}
	for i, ce := range out {
		if ce.Rank != i+1 {
			t.Errorf("rank %d at position %d", ce.Rank, i)
		}
		if ce.Explanation.Utterance == "" {
			t.Errorf("candidate %d has no utterance", i)
		}
	}
}

func TestExplainLargeTableSamples(t *testing.T) {
	var rows [][]string
	for i := 0; i < 500; i++ {
		country := "Kenya"
		if i%7 == 0 {
			country = "Norway"
		}
		rows = append(rows, []string{country, "2000", "3"})
	}
	tab, err := NewTable("big", []string{"Country", "Year", "Rate"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := ParseQuery("max(R[Rate].Country.Norway)")
	ex, err := Explain(q, tab)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.SampleRows) == 0 {
		t.Error("a large table's explanation has no sample rows")
	}
	if lines := strings.Count(ex.Text(), "\n"); lines > 10 {
		t.Errorf("large-table rendering has %d lines; sampling not applied", lines)
	}
}

func TestExplainJSON(t *testing.T) {
	tab := exampleTable(t)
	q, _ := ParseQuery("count(City.Athens)")
	raw, err := ExplainJSON(q, tab)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"table": "olympics"`, `"utterance"`, `"grid"`, `"colored"`, `"count(City.Athens)"`, `"provenance"`} {
		if !strings.Contains(string(raw), frag) {
			t.Errorf("JSON missing %s:\n%s", frag, raw)
		}
	}
}

// TestExplainJSONIsTheEngineDocument holds the library's document to
// the engine's: ExplainJSON must equal the indented encoding of what
// the engine explains for the same query, version cleared, on the
// paper's table and on the 200 seeded random pairs the engine's golden
// test hashes.
func TestExplainJSONIsTheEngineDocument(t *testing.T) {
	type pair struct {
		tab *Table
		q   Query
	}
	var pairs []pair
	olympics := exampleTable(t)
	for _, src := range []string{"max(R[Year].Country.Greece)", "R[City].Prev.City.London", "count(City.Athens)", "sum(R[City].Record)"} {
		q, err := ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, pair{olympics, q})
	}
	rng := rand.New(rand.NewSource(2019))
	for i := 0; i < 200; i++ {
		tab := qrand.Table(rng)
		pairs = append(pairs, pair{tab, qrand.Query(rng, tab, 1+rng.Intn(3))})
	}
	for _, p := range pairs {
		e := NewEngine(EngineOptions{CacheSize: 4, Workers: 1})
		if _, err := e.RegisterTable(p.tab); err != nil {
			t.Fatal(err)
		}
		lib, libErr := ExplainJSON(p.q, p.tab)
		ex, err := e.Explain(context.Background(), p.tab.Name(), p.q.String())
		if err != nil || libErr != nil {
			if (err == nil) != (libErr == nil) {
				t.Errorf("%s on %s: engine error %v, library error %v", p.q, p.tab.Name(), err, libErr)
			}
			continue
		}
		unversioned := *ex
		unversioned.Version = ""
		want, err := json.MarshalIndent(&unversioned, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lib, want) {
			t.Errorf("%s on %s: ExplainJSON\n%s\nwant\n%s", p.q, p.tab.Name(), lib, want)
		}
	}
}

func TestMarkingConstants(t *testing.T) {
	if MarkNone.String() != "none" || MarkColored.String() != "colored" {
		t.Error("marking aliases broken")
	}
}

func TestHelpers(t *testing.T) {
	if !strings.Contains(HighlightCSS(), ".colored") {
		t.Error("CSS missing")
	}
	if !strings.Contains(HighlightLegend(), "PO") {
		t.Error("legend missing")
	}
}
