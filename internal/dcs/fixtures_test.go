package dcs_test

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"

	. "nlexplain/internal/dcs"
	"nlexplain/internal/table"
)

// fractionsTable is the multi-morsel fixture of the differential
// corpus: n rows of three-decimal fractions, whose sum rounds
// differently under every association of the additions — so any fold
// that is not the interpreter's left fold shows up as a changed bit.
func fractionsTable(n int) *table.Table {
	rng := rand.New(rand.NewSource(3))
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{strconv.Itoa(i), strconv.FormatFloat(rng.Float64()*1000, 'f', 3, 64)}
	}
	return table.MustNew("fractions", []string{"Id", "Score"}, rows)
}

var (
	corpusFractionsOnce sync.Once
	corpusFractions     *table.Table
)

// olympicsTable is the running example of Figure 1.
func olympicsTable(t testing.TB) *table.Table {
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

// medalsTable is the Pacific-games medals table of Figure 6 / Table 17.
func medalsTable(t testing.TB) *table.Table {
	t.Helper()
	return table.MustNew("medals",
		[]string{"Rank", "Nation", "Gold", "Silver", "Bronze", "Total"},
		[][]string{
			{"1", "New Caledonia", "120", "107", "61", "288"},
			{"2", "Tahiti", "60", "42", "42", "144"},
			{"3", "Papua New Guinea", "48", "25", "48", "121"},
			{"4", "Fiji", "33", "44", "53", "130"},
			{"5", "Samoa", "22", "17", "34", "73"},
			{"6", "Nauru", "8", "10", "10", "28"},
			{"7", "Tonga", "4", "6", "10", "20"},
		})
}

// playersTable is the Swiss-players table of Figure 4 / Table 12.
func playersTable(t testing.TB) *table.Table {
	t.Helper()
	return table.MustNew("players",
		[]string{"Name", "Position", "Games", "Club"},
		[][]string{
			{"Erich Burgener", "GK", "3", "Servette"},
			{"Roger Berbig", "GK", "3", "Grasshoppers"},
			{"Charly In-Albon", "DF", "4", "Grasshoppers"},
			{"Beat Rietmann", "DF", "2", "FC St. Gallen"},
			{"Andy Egli", "DF", "6", "Grasshoppers"},
			{"Marcel Koller", "DF", "2", "Grasshoppers"},
			{"Rene Botteron", "MF", "1", "FC Nuremburg"},
			{"Heinz Hermann", "MF", "6", "Grasshoppers"},
			{"Roger Wehrli", "MF", "6", "Grasshoppers"},
			{"Lucien Favre", "MF", "5", "Toulouse Servette"},
		})
}

// uslTable is the league table of Figure 8.
func uslTable(t testing.TB) *table.Table {
	t.Helper()
	return table.MustNew("usl",
		[]string{"Year", "League", "Attendance", "Open Cup"},
		[][]string{
			{"2002", "USL A-League", "6,260", "Did not qualify"},
			{"2003", "USL A-League", "5,871", "Did not qualify"},
			{"2004", "USL A-League", "5,628", "4th Round"},
			{"2005", "USL First Division", "6,028", "4th Round"},
			{"2006", "USL First Division", "5,575", "3rd Round"},
		})
}

func mustExec(t testing.TB, tab *table.Table, src string) *Result {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	r, err := Execute(e, tab)
	if err != nil {
		t.Fatalf("Execute(%q): %v", src, err)
	}
	return r
}

func wantValues(t testing.TB, r *Result, want ...string) {
	t.Helper()
	if len(r.Values) != len(want) {
		t.Fatalf("got %d values %v, want %v", len(r.Values), r.Values, want)
	}
	for i, w := range want {
		if r.Values[i].String() != w {
			t.Errorf("value[%d] = %q, want %q (all: %v)", i, r.Values[i], w, r.Values)
		}
	}
}

func wantRecords(t testing.TB, r *Result, want ...int) {
	t.Helper()
	if r.Type != RecordsType {
		t.Fatalf("result type = %v, want records", r.Type)
	}
	if len(r.Records) != len(want) {
		t.Fatalf("got records %v, want %v", r.Records, want)
	}
	for i, w := range want {
		if r.Records[i] != w {
			t.Fatalf("got records %v, want %v", r.Records, want)
		}
	}
}
