package utterance

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nlexplain/internal/dcs"
	"nlexplain/internal/qrand"
	"nlexplain/internal/table"
)

func utterOf(t testing.TB, src string) string {
	t.Helper()
	return Utter(dcs.MustParse(src))
}

// TestPaperUtterances checks the utterances the paper prints verbatim
// (Example 5.1, Table 3, Figures 4-9) modulo the paper's own wording
// variation between figures.
func TestPaperUtterances(t *testing.T) {
	cases := []struct {
		query string
		want  string
	}{
		// Example 5.1.
		{"R[Year].Country.Greece",
			"values in column Year in rows where value of column Country is Greece"},
		{"max(R[Year].Country.Greece)",
			"maximum of values in column Year in rows where value of column Country is Greece"},
		// Table 3 rows.
		{"count(City.Athens)",
			"the number of rows where value of column City is Athens"},
		{"Prev.City.Athens",
			"rows right above rows where value of column City is Athens"},
		{"(City.London u Country.UK)",
			"rows where value of column City is London and also where value of column Country is UK"},
		{"argmax(Record, Year)",
			"rows that have the highest value in column Year"},
		{"argmax((Athens or London), R[λx.count(City.x)])",
			"the value of Athens or London that appears the most in column City"},
		{"argmax((London or Beijing), R[λx.R[Year].City.x])",
			"between London or Beijing, who has the highest value of column Year out of the values in City"},
		// Figure 4.
		{"Games>4",
			"rows where values of column Games are more than 4"},
		// Figure 6 / Example 5.2 (value difference).
		{"sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)",
			"difference in values of column Total between rows where value of column Nation is Fiji and Tonga"},
		// Figure 9 (occurrence difference).
		{`sub(count(Lake."Lake Huron"), count(Lake."Lake Erie"))`,
			"in column Lake, what is the difference between rows with value Lake Huron and rows with value Lake Erie"},
		// Figure 8 (both candidates).
		{`max(R[Year].League."USL A-League")`,
			"maximum of values in column Year in rows where value of column League is USL A-League"},
		{`min(R[Year].argmax(Record, "Open Cup"))`,
			"minimum of values in column Year in rows that have the highest value in column Open Cup"},
		// Index superlative (Table 3 "where it is the last row").
		{"R[Year].argmax(City.Athens, Index)",
			"value of column Year where it is the last row in rows where value of column City is Athens"},
		// Most frequent over a whole column (Table 22).
		{"argmax(Values[City], R[λx.count(City.x)])",
			"the value that appears the most in column City"},
		// Union of records.
		{"(Country.Greece or Country.China)",
			"rows where value of column Country is Greece or where value of column Country is China"},
		// Join with a union of literals (Table 3 row 3).
		{"City.(Athens or London)",
			"rows where value of column City is Athens or London"},
		// R[Prev] (Table 15).
		{"R[City].R[Prev].City.Athens",
			"values in column City in rows right below rows where value of column City is Athens"},
		// Aggregates.
		{"sum(R[Year].City.Athens)",
			"the sum of values in column Year in rows where value of column City is Athens"},
		{"avg(R[Year].City.Athens)",
			"the average of values in column Year in rows where value of column City is Athens"},
		{"min(R[Year].Country.Greece)",
			"minimum of values in column Year in rows where value of column Country is Greece"},
	}
	for _, c := range cases {
		if got := utterOf(t, c.query); got != c.want {
			t.Errorf("Utter(%s)\n got:  %q\n want: %q", c.query, got, c.want)
		}
	}
}

func TestComparisonPhrases(t *testing.T) {
	cases := map[string]string{
		"Games>4":  "more than 4",
		"Games>=4": "at least 4",
		"Games<4":  "less than 4",
		"Games<=4": "at most 4",
		"Games!=4": "different from 4",
	}
	for q, frag := range cases {
		if got := utterOf(t, q); !strings.Contains(got, frag) {
			t.Errorf("Utter(%s) = %q, missing %q", q, got, frag)
		}
	}
}

// TestCompositionality: the utterance of a composition embeds the
// utterance of its parts (the Figure 3 bottom-up property).
func TestCompositionality(t *testing.T) {
	inner := dcs.MustParse("R[Year].Country.Greece")
	outer := &dcs.Aggregate{Fn: dcs.Max, Arg: inner}
	if u, o := Utter(inner), Utter(outer); !strings.Contains(o, u) {
		t.Errorf("outer utterance %q does not embed inner %q", o, u)
	}
}

// TestTotalityProperty: every well-typed random query has a non-empty
// utterance mentioning all of its columns.
func TestTotalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	trials := 1000
	if testing.Short() {
		trials = 150
	}
	for i := 0; i < trials; i++ {
		tab := qrand.Table(rng)
		q := qrand.Query(rng, tab, 1+rng.Intn(3))
		if err := validate(q, tab); err != nil {
			t.Fatalf("validate(%s): %v", q, err)
		}
	}
	// The empty value, which qrand never draws, still has a name: the
	// sentence keeps its object and a bare literal its utterance.
	for src, want := range map[string]string{
		`""`:        `""`,
		`City.""`:   `rows where value of column City is ""`,
		`Games!=""`: `rows where values of column Games are different from ""`,
	} {
		if got := utterOf(t, src); got != want {
			t.Errorf("Utter(%s) = %q, want %q", src, got, want)
		}
	}
}

// TestDistinctQueriesDistinctUtterances: the Figure 4 ambiguity pair has
// identical highlights but distinguishable utterances — the reason the
// two explanation methods are complementary (Section 5.2).
func TestDistinctQueriesDistinctUtterances(t *testing.T) {
	u1 := utterOf(t, "Games>4")
	u2 := utterOf(t, "(Games>=5 u Games<17)")
	if u1 == u2 {
		t.Errorf("distinct queries share utterance %q", u1)
	}
	if !strings.Contains(u2, "at least 5") || !strings.Contains(u2, "less than 17") {
		t.Errorf("u2 = %q", u2)
	}
}

func TestDerivationTreeFigure3(t *testing.T) {
	e := dcs.MustParse("max(R[Year].Country.Greece)")
	tree := Derive(e)
	if tree.Category != "Entity" {
		t.Errorf("root category = %q, want Entity (Figure 3)", tree.Category)
	}
	if tree.Utterance != Utter(e) {
		t.Error("yield must equal the utterance")
	}
	// The tree contains Binary leaves for Year and Country and an Entity
	// leaf for Greece.
	var cats []string
	var walk func(n *Node)
	walk = func(n *Node) {
		cats = append(cats, n.Category+":"+n.Formal)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree)
	joined := strings.Join(cats, "|")
	for _, want := range []string{"Binary:Year", "Binary:Country", "Entity:Greece", "Records:Country.Greece", "Values:R[Year].Country.Greece"} {
		if !strings.Contains(joined, want) {
			t.Errorf("derivation missing node %q in %v", want, cats)
		}
	}
	if tree.Size() < 5 {
		t.Errorf("tree size = %d, want >= 5", tree.Size())
	}
}

func TestDerivationString(t *testing.T) {
	s := Derive(dcs.MustParse("max(R[Year].Country.Greece)")).String()
	if !strings.Contains(s, "(Entity) max(R[Year].Country.Greece)") {
		t.Errorf("rendered tree missing root line:\n%s", s)
	}
	if !strings.Contains(s, "maximum of values in column Year") {
		t.Errorf("rendered tree missing utterance:\n%s", s)
	}
}

func TestValidateRejectsUnknownColumn(t *testing.T) {
	tab := table.MustNew("t", []string{"A"}, [][]string{{"1"}})
	if err := validate(dcs.MustParse("B.1"), tab); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestGenericSubFallback(t *testing.T) {
	// A difference that matches neither special template.
	u := utterOf(t, "sub(count(City.Athens), count(Country.UK))")
	if !strings.Contains(u, "the difference between ") {
		t.Errorf("u = %q", u)
	}
}

// validate reports whether an utterance can be generated for e against
// t: it checks the query and confirms the utterance mentions every
// referenced column, the totality property the user study relies on.
func validate(e dcs.Expr, t *table.Table) error {
	if err := dcs.Check(e, t); err != nil {
		return err
	}
	u := Utter(e)
	if strings.TrimSpace(u) == "" {
		return fmt.Errorf("empty utterance for %s", e)
	}
	for _, col := range dcs.Columns(e) {
		if !strings.Contains(strings.ToLower(u), strings.ToLower(col)) {
			return fmt.Errorf("utterance %q does not mention column %q", u, col)
		}
	}
	return nil
}
