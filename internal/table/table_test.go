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

func TestRecordsWhere(t *testing.T) {
	tab := olympics(t)
	country, _ := tab.ColumnIndex("Country")
	got := tab.RecordsWhere(country, StringValue("Greece"))
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("RecordsWhere(Country, Greece) = %v, want [0 2]", got)
	}
	if got := tab.RecordsWhere(country, StringValue("Atlantis")); len(got) != 0 {
		t.Errorf("RecordsWhere of absent value = %v, want empty", got)
	}
	// KB lookup must be case-insensitive like entity matching.
	if got := tab.RecordsWhere(country, StringValue("greece")); len(got) != 2 {
		t.Errorf("case-insensitive lookup failed: %v", got)
	}
}

func TestRecordsWhereNumeric(t *testing.T) {
	tab := olympics(t)
	year, _ := tab.ColumnIndex("Year")
	got := tab.RecordsWhere(year, NumberValue(2004))
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("RecordsWhere(Year, 2004) = %v, want [2]", got)
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

// cellSet brings refs, in any order and with repeats, into the
// canonical form.
func cellSet(refs ...CellRef) CellSet { return DedupCells(refs) }

func TestCellSetOperations(t *testing.T) {
	a := cellSet(CellRef{0, 0}, CellRef{1, 1})
	b := cellSet(CellRef{2, 2}, CellRef{1, 1})
	if !a.Contains(CellRef{0, 0}) || a.Contains(CellRef{2, 2}) {
		t.Error("Contains broken")
	}
	u := CellSet(MergeSortedCells(nil, a, b))
	if len(u) != 3 {
		t.Errorf("union size = %d, want 3", len(u))
	}
	i := CellSet(IntersectSortedCells(nil, a, b))
	if len(i) != 1 || !i.Contains(CellRef{1, 1}) {
		t.Errorf("intersect = %v", i)
	}
	if !a.SubsetOf(u) || u.SubsetOf(a) {
		t.Error("SubsetOf broken")
	}
	// The walks at their ends: the empty set inside every set.
	var none CellSet
	if !none.SubsetOf(a) || !none.SubsetOf(none) || a.SubsetOf(none) || !a.SubsetOf(a) {
		t.Error("SubsetOf broken on the empty set")
	}
	if b.SubsetOf(a) || cellSet(CellRef{3, 0}).SubsetOf(u) {
		t.Error("SubsetOf accepts a stranger")
	}
}

// TestCellSetRows: row-major order puts a record's cells side by side,
// so a set's records read off in one pass, ascending and distinct.
func TestCellSetRows(t *testing.T) {
	s := cellSet(CellRef{3, 0}, CellRef{1, 2}, CellRef{3, 1})
	var rows []int
	for _, c := range s {
		if len(rows) == 0 || rows[len(rows)-1] != c.Row {
			rows = append(rows, c.Row)
		}
	}
	if len(rows) != 2 || rows[0] != 1 || rows[1] != 3 {
		t.Errorf("Rows = %v, want [1 3]", rows)
	}
}

func TestCellSetSortedDeterministic(t *testing.T) {
	got := cellSet(CellRef{2, 1}, CellRef{0, 5}, CellRef{2, 0}, CellRef{0, 5})
	want := []CellRef{{0, 5}, {2, 0}, {2, 1}}
	if len(got) != len(want) {
		t.Fatalf("set = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("set = %v, want %v", got, want)
		}
	}
	if got.String() != "{(0,5) (2,0) (2,1)}" {
		t.Errorf("String = %q", got.String())
	}
}
