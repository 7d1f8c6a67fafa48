package export

import (
	"encoding/json"
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
		})
}

func TestExplanationJSON(t *testing.T) {
	tab := olympics(t)
	doc, _, err := Build(dcs.MustParse("max(R[Year].Country.Greece)"), tab, 0)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Result != "2004" {
		t.Errorf("result = %q", doc.Result)
	}
	if !strings.Contains(doc.Utterance, "maximum of values") {
		t.Errorf("utterance = %q", doc.Utterance)
	}
	if doc.Table.Headers[0] != "max(Year)" {
		t.Errorf("header = %q, want aggregate marker", doc.Table.Headers[0])
	}
	if doc.Table.Cells[0][0].Marking != "colored" {
		t.Errorf("cell (0,0) marking = %q", doc.Table.Cells[0][0].Marking)
	}
	if doc.Table.Cells[1][0].Marking != "lit" {
		t.Errorf("cell (1,0) marking = %q", doc.Table.Cells[1][0].Marking)
	}
	if doc.Table.Cells[0][2].Marking != "" {
		t.Errorf("unrelated cell marking = %q", doc.Table.Cells[0][2].Marking)
	}
	if doc.Table.Sampled {
		t.Error("small table must not be sampled")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	tab := olympics(t)
	raw, err := Marshal(dcs.MustParse("count(City.Athens)"), tab)
	if err != nil {
		t.Fatal(err)
	}
	var back ExplanationJSON
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Query != "count(City.Athens)" || back.Result != "2" {
		t.Errorf("round trip = %+v", back)
	}
	if back.SQL == "" {
		t.Error("SQL missing from document")
	}
}

func TestLargeTableSampledJSON(t *testing.T) {
	var rows [][]string
	for i := 0; i < 300; i++ {
		c := "Kenya"
		if i%11 == 0 {
			c = "Norway"
		}
		rows = append(rows, []string{c, "2000"})
	}
	tab := table.MustNew("big", []string{"Country", "Year"}, rows)
	doc, _, err := Build(dcs.MustParse("count(Country.Norway)"), tab, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Table.Sampled {
		t.Error("large table must be sampled")
	}
	if len(doc.Table.Cells) > 4 {
		t.Errorf("sampled document has %d rows", len(doc.Table.Cells))
	}
	if len(doc.Table.Rows) != len(doc.Table.Cells) {
		t.Error("row indices and cell rows disagree")
	}
}

func TestExplanationErrors(t *testing.T) {
	tab := olympics(t)
	if _, _, err := Build(dcs.MustParse("Nope.x"), tab, 0); err == nil {
		t.Error("unknown column should fail")
	}
	if _, _, err := Build(dcs.MustParse("sum(R[City].Record)"), tab, 0); err == nil {
		t.Error("summing text should fail")
	}
}
