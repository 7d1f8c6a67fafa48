package table

import (
	"strings"
	"testing"
)

func olympics(t *testing.T) *Table {
	t.Helper()
	tab, err := New("olympics",
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
		t.Fatalf("New: %v", err)
	}
	return tab
}

func TestNewValidation(t *testing.T) {
	if _, err := New("t", nil, nil); err == nil {
		t.Error("New with no columns should fail")
	}
	if _, err := New("t", []string{"A", "a"}, nil); err == nil {
		t.Error("New with duplicate (case-insensitive) columns should fail")
	}
	if _, err := New("t", []string{"A"}, [][]string{{"1", "2"}}); err == nil {
		t.Error("New with ragged row should fail")
	}
}

func TestDimensions(t *testing.T) {
	tab := olympics(t)
	if tab.NumRows() != 6 || tab.NumCols() != 3 {
		t.Errorf("dims = %dx%d, want 6x3", tab.NumRows(), tab.NumCols())
	}
	if tab.Name() != "olympics" {
		t.Errorf("Name = %q", tab.Name())
	}
}

func TestColumnIndexCaseInsensitive(t *testing.T) {
	tab := olympics(t)
	for _, name := range []string{"Year", "year", " YEAR "} {
		if i, ok := tab.ColumnIndex(name); !ok || i != 0 {
			t.Errorf("ColumnIndex(%q) = %d,%v, want 0,true", name, i, ok)
		}
	}
	if _, ok := tab.ColumnIndex("Nope"); ok {
		t.Error("ColumnIndex of unknown column should report false")
	}
}

func TestRowsFor(t *testing.T) {
	tab := olympics(t)
	country, _ := tab.ColumnIndex("Country")
	got := tab.RowsFor(country, StringValue("Greece"))
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("RowsFor(Country, Greece) = %v, want [0 2]", got)
	}
	if got := tab.RowsFor(country, StringValue("Atlantis")); len(got) != 0 {
		t.Errorf("RowsFor of absent value = %v, want empty", got)
	}
	// KB lookup must be case-insensitive like entity matching.
	if got := tab.RowsFor(country, StringValue("greece")); len(got) != 2 {
		t.Errorf("case-insensitive lookup failed: %v", got)
	}
}

func TestRowsForNumeric(t *testing.T) {
	tab := olympics(t)
	year, _ := tab.ColumnIndex("Year")
	got := tab.RowsFor(year, NumberValue(2004))
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("RowsFor(Year, 2004) = %v, want [2]", got)
	}
	// A text literal spelling the number is the same entity.
	if got := tab.RowsFor(year, StringValue("2004")); len(got) != 1 || got[0] != 2 {
		t.Errorf("RowsFor(Year, \"2004\") = %v, want [2]", got)
	}
}

func TestDistinctColumnValues(t *testing.T) {
	tab := olympics(t)
	city, _ := tab.ColumnIndex("City")
	vals := tab.DistinctColumnValues(city)
	want := []string{"Athens", "Paris", "Beijing", "London", "Rio de Janeiro"}
	if len(vals) != len(want) {
		t.Fatalf("distinct values = %v", vals)
	}
	for i, w := range want {
		if vals[i].Str != w {
			t.Errorf("distinct[%d] = %q, want %q", i, vals[i].Str, w)
		}
	}
}

func TestFromCSV(t *testing.T) {
	src := "Year,Country,City\n1896,Greece,Athens\n2004,Greece,Athens\n"
	tab, err := FromCSV("csv", strings.NewReader(src))
	if err != nil {
		t.Fatalf("FromCSV: %v", err)
	}
	if tab.NumRows() != 2 || tab.NumCols() != 3 {
		t.Errorf("dims = %dx%d", tab.NumRows(), tab.NumCols())
	}
	if tab.Value(0, 0).Kind != Number {
		t.Error("CSV year should parse as number")
	}
}

func TestFromCSVErrors(t *testing.T) {
	if _, err := FromCSV("e", strings.NewReader("")); err == nil {
		t.Error("empty CSV should fail")
	}
}

func TestTableString(t *testing.T) {
	s := olympics(t).String()
	if !strings.Contains(s, "Year") || !strings.Contains(s, "Rio de Janeiro") {
		t.Errorf("String() missing content:\n%s", s)
	}
	if lines := strings.Count(s, "\n"); lines != 7 {
		t.Errorf("String() has %d lines, want 7", lines)
	}
}
