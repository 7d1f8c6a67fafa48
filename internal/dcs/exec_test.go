package dcs_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	. "nlexplain/internal/dcs"
	"nlexplain/internal/table"
)

func TestJoin(t *testing.T) {
	tab := olympicsTable(t)
	r := mustExec(t, tab, "Country.Greece")
	wantRecords(t, r, 0, 2)
	if cells := levelCells(r.Cells); len(cells) != 2 || cells[0] != (table.CellRef{Row: 0, Col: 1}) {
		t.Errorf("witness cells = %v", cells)
	}
}

func TestJoinNumberLiteral(t *testing.T) {
	r := mustExec(t, olympicsTable(t), "Year.2004")
	wantRecords(t, r, 2)
}

func TestJoinAbsentValue(t *testing.T) {
	r := mustExec(t, olympicsTable(t), "Country.Atlantis")
	wantRecords(t, r)
	if !r.Empty() {
		t.Error("expected empty result")
	}
}

func TestColumnValues(t *testing.T) {
	// Example 4.3: R[Year].City.Athens.
	r := mustExec(t, olympicsTable(t), "R[Year].City.Athens")
	wantValues(t, r, "1896", "2004")
}

func TestColumnValuesDedup(t *testing.T) {
	// Values are a set: two Greece records share the city Athens.
	r := mustExec(t, olympicsTable(t), "R[City].Country.Greece")
	wantValues(t, r, "Athens")
	if r.Cells.Len() != 2 {
		t.Errorf("cells should keep both occurrences, got %v", levelCells(r.Cells))
	}
}

func TestAllRecords(t *testing.T) {
	r := mustExec(t, olympicsTable(t), "Record")
	wantRecords(t, r, 0, 1, 2, 3, 4, 5)
}

func TestPrev(t *testing.T) {
	// Records right above rows where City is London (row 4) -> row 3.
	r := mustExec(t, olympicsTable(t), "Prev.City.London")
	wantRecords(t, r, 3)
}

func TestPrevAtTopVanishes(t *testing.T) {
	r := mustExec(t, olympicsTable(t), "Prev.Year.1896")
	wantRecords(t, r)
}

func TestNext(t *testing.T) {
	// Figure: "The next European team Haiti played after ..." pattern.
	r := mustExec(t, olympicsTable(t), "R[Prev].City.Athens")
	wantRecords(t, r, 1, 3)
}

func TestNextAtBottomVanishes(t *testing.T) {
	r := mustExec(t, olympicsTable(t), "R[Prev].Year.2016")
	wantRecords(t, r)
}

func TestPrevNextComposition(t *testing.T) {
	r := mustExec(t, olympicsTable(t), "R[City].Prev.City.London")
	wantValues(t, r, "Beijing")
	r = mustExec(t, olympicsTable(t), "R[City].R[Prev].City.Beijing")
	wantValues(t, r, "London")
}

func TestIntersection(t *testing.T) {
	// Section 3.2: Country.Greece u Year.2004.
	r := mustExec(t, olympicsTable(t), "(Country.Greece u Year.2004)")
	wantRecords(t, r, 2)
}

func TestIntersectionEmpty(t *testing.T) {
	r := mustExec(t, olympicsTable(t), "(Country.Greece u Year.2008)")
	wantRecords(t, r)
}

func TestUnionRecords(t *testing.T) {
	// Section 3.2: Country.Greece ⊔ Country.China.
	r := mustExec(t, olympicsTable(t), "(Country.Greece or Country.China)")
	wantRecords(t, r, 0, 2, 3)
}

func TestUnionValues(t *testing.T) {
	r := mustExec(t, olympicsTable(t), "(Athens or London)")
	wantValues(t, r, "Athens", "London")
}

// scalar returns the numeric value of a ScalarType result.
func scalar(r *Result) (float64, bool) {
	if r.Type != ScalarType || len(r.Values) == 0 {
		return 0, false
	}
	return r.Values[0].Float()
}

func TestCountRecords(t *testing.T) {
	// Section 3.2: count(City.Athens) = number of records where City is Athens.
	r := mustExec(t, olympicsTable(t), "count(City.Athens)")
	if f, ok := scalar(r); !ok || f != 2 {
		t.Errorf("count = %v, want 2", r)
	}
	if r.Aggr != Count {
		t.Errorf("Aggr = %q, want count", r.Aggr)
	}
}

func TestCountValues(t *testing.T) {
	r := mustExec(t, olympicsTable(t), "count(R[City].Record)")
	if f, _ := scalar(r); f != 5 { // 5 distinct cities (Athens repeats)
		t.Errorf("count distinct cities = %v, want 5", f)
	}
}

func TestMax(t *testing.T) {
	// Figure 1: maximum value in column Year where Country is Greece.
	r := mustExec(t, olympicsTable(t), "max(R[Year].Country.Greece)")
	wantValues(t, r, "2004")
	if r.Aggr != Max {
		t.Errorf("Aggr = %q", r.Aggr)
	}
}

func TestMinSumAvg(t *testing.T) {
	r := mustExec(t, olympicsTable(t), "min(R[Year].Country.Greece)")
	wantValues(t, r, "1896")
	r = mustExec(t, olympicsTable(t), "sum(R[Year].Country.Greece)")
	wantValues(t, r, "3900")
	r = mustExec(t, olympicsTable(t), "avg(R[Year].Country.Greece)")
	wantValues(t, r, "1950")
}

func TestAggregateOverText(t *testing.T) {
	e := MustParse("sum(R[City].Country.Greece)")
	if _, err := Execute(e, olympicsTable(t)); err == nil {
		t.Fatal("summing a text column should fail")
	} else if !strings.Contains(err.Error(), "non-numeric") {
		t.Errorf("error = %v", err)
	}
}

func TestAggregateOverEmpty(t *testing.T) {
	e := MustParse("max(R[Year].Country.Atlantis)")
	if _, err := Execute(e, olympicsTable(t)); err == nil {
		t.Fatal("max over empty set should fail")
	}
}

func TestSub(t *testing.T) {
	// Example 5.2 / Figure 6: difference in Total between Fiji and Tonga.
	r := mustExec(t, medalsTable(t), "sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)")
	wantValues(t, r, "110")
	if r.Cells.Len() != 2 {
		t.Errorf("sub witness cells = %v, want the two Total cells", levelCells(r.Cells))
	}
}

func TestSubOfCounts(t *testing.T) {
	// "Difference of Value Occurrences" (Table 10, row 7).
	r := mustExec(t, olympicsTable(t), "sub(count(City.Athens), count(City.London))")
	wantValues(t, r, "1")
}

func TestSubNonSingleton(t *testing.T) {
	e := MustParse("sub(R[Year].Country.Greece, R[Year].Country.China)")
	if _, err := Execute(e, olympicsTable(t)); err == nil {
		t.Fatal("sub over a 2-value set should fail")
	}
}

func TestArgmaxRecords(t *testing.T) {
	// Table 10: rows with the highest value in column Year.
	r := mustExec(t, olympicsTable(t), "argmax(Record, Year)")
	wantRecords(t, r, 5)
}

func TestArgminRecordsRestricted(t *testing.T) {
	// Example 3.1: R[City].argmin(Record, Year).
	r := mustExec(t, olympicsTable(t), "R[City].argmin(Record, Year)")
	wantValues(t, r, "Athens")
}

func TestArgmaxTies(t *testing.T) {
	// Three players share the maximal Games value 6.
	r := mustExec(t, playersTable(t), "argmax(Record, Games)")
	wantRecords(t, r, 4, 7, 8)
}

func TestIndexSuperlativeLast(t *testing.T) {
	// "Greece held its last Olympics in what year?" — last record trick.
	r := mustExec(t, olympicsTable(t), "R[Year].argmax(Country.Greece, Index)")
	wantValues(t, r, "2004")
}

func TestIndexSuperlativeFirst(t *testing.T) {
	r := mustExec(t, olympicsTable(t), "R[Year].argmin(Country.Greece, Index)")
	wantValues(t, r, "1896")
}

func TestIndexSuperlativeEmpty(t *testing.T) {
	r := mustExec(t, olympicsTable(t), "R[Year].argmax(Country.Atlantis, Index)")
	if !r.Empty() {
		t.Errorf("expected empty, got %v", r)
	}
}

func TestMostFrequentAllColumn(t *testing.T) {
	// Figure 22: the value that appears the most in column City.
	r := mustExec(t, olympicsTable(t), "argmax(Values[City], R[λx.count(City.x)])")
	wantValues(t, r, "Athens")
}

func TestMostFrequentCandidates(t *testing.T) {
	// Table 3: the value of Athens or London that appears the most in City.
	r := mustExec(t, olympicsTable(t), "argmax((Athens or London), R[λx.count(City.x)])")
	wantValues(t, r, "Athens")
}

func TestCompareValuesMax(t *testing.T) {
	// Figure 5 / Table 21: between London or Beijing who has the highest Year.
	r := mustExec(t, olympicsTable(t), "argmax((London or Beijing), R[λx.R[Year].City.x])")
	wantValues(t, r, "London")
}

func TestCompareValuesMin(t *testing.T) {
	r := mustExec(t, olympicsTable(t), "argmin((London or Beijing), R[λx.R[Year].City.x])")
	wantValues(t, r, "Beijing")
}

func TestComparisonJoin(t *testing.T) {
	// Figure 4: rows where values of column Games are more than 4.
	r := mustExec(t, playersTable(t), "Games>4")
	wantRecords(t, r, 4, 7, 8, 9)
	r = mustExec(t, playersTable(t), "Games>=5")
	wantRecords(t, r, 4, 7, 8, 9)
	r = mustExec(t, playersTable(t), "Games<2")
	wantRecords(t, r, 6)
	r = mustExec(t, playersTable(t), "Games<=2")
	wantRecords(t, r, 3, 5, 6)
	r = mustExec(t, playersTable(t), "Games!=3")
	wantRecords(t, r, 2, 3, 4, 5, 6, 7, 8, 9)
}

func TestComparisonOnTextColumnIsEmpty(t *testing.T) {
	r := mustExec(t, playersTable(t), "Name>4")
	wantRecords(t, r)
}

func TestComposedComparisonRange(t *testing.T) {
	// "at least 5 and also less than 17" (Section 5.2 ambiguity example).
	r := mustExec(t, playersTable(t), "(Games>=5 u Games<17)")
	wantRecords(t, r, 4, 7, 8, 9)
}

func TestQuotedColumnName(t *testing.T) {
	r := mustExec(t, uslTable(t), `R[Year]."Open Cup"."4th Round"`)
	wantValues(t, r, "2004", "2005")
}

func TestFigure8CorrectQuery(t *testing.T) {
	// "maximum value in column Year in rows where League is USL A-League".
	r := mustExec(t, uslTable(t), `max(R[Year].League."USL A-League")`)
	wantValues(t, r, "2004")
}

func TestFigure8IncorrectQuerySameAnswer(t *testing.T) {
	// "minimum value in column Year in rows that have the highest value in
	// column Open Cup" — spuriously also 2004 on this table.
	r := mustExec(t, uslTable(t), `min(R[Year].argmax(Record, "Open Cup"))`)
	wantValues(t, r, "2004")
}

func TestAnswerKeyOrderIndependent(t *testing.T) {
	a := mustExec(t, olympicsTable(t), "(Athens or London)")
	b := mustExec(t, olympicsTable(t), "(London or Athens)")
	if a.AnswerKey() != b.AnswerKey() {
		t.Errorf("AnswerKey should be order-independent: %q vs %q", a.AnswerKey(), b.AnswerKey())
	}
}

func TestExecuteChecksFirst(t *testing.T) {
	e := MustParse("NoSuchColumn.Greece")
	if _, err := Execute(e, olympicsTable(t)); err == nil {
		t.Fatal("expected check error for unknown column")
	}
}

func TestResultString(t *testing.T) {
	r := mustExec(t, olympicsTable(t), "max(R[Year].Country.Greece)")
	if r.String() != "2004" {
		t.Errorf("String = %q", r.String())
	}
	r = mustExec(t, olympicsTable(t), "Country.Greece")
	if r.String() != "records[0 2]" {
		t.Errorf("String = %q", r.String())
	}
}

// TestResultStringMatchesFormat holds the appended rendering to the
// one fmt and Value.String give, byte for byte: records (none, one,
// many), value sets of every kind (fractions, NaN, ±Inf, -0, large
// numbers, dates, one past year 9999, text past the scratch array, the empty string) and
// scalars.
func TestResultStringMatchesFormat(t *testing.T) {
	vals := []table.Value{
		table.NumberValue(0), table.NumberValue(-7), table.NumberValue(1e15), table.NumberValue(-1e15 + 1),
		table.NumberValue(0.1), table.NumberValue(-2.5e-300), table.NumberValue(math.Copysign(0, -1)),
		table.NumberValue(math.NaN()), table.NumberValue(math.Inf(1)), table.NumberValue(math.Inf(-1)),
		table.ParseValue("2004-08-13"), table.DateValue(time.Date(12345, 1, 2, 0, 0, 0, 0, time.UTC)),
		table.StringValue("Greece"), table.StringValue(strings.Repeat("ſtraße ", 10)), table.StringValue(""),
	}
	want := func(r *Result) string {
		if r.Type == RecordsType {
			return fmt.Sprintf("records%v", r.Records)
		}
		if r.Type == ScalarType {
			if len(r.Values) == 0 {
				return "scalar{}"
			}
			return r.Values[0].String()
		}
		parts := make([]string, len(r.Values))
		for i, v := range r.Values {
			parts[i] = v.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	results := []*Result{
		{Type: RecordsType},
		{Type: RecordsType, Records: []int{0}},
		{Type: RecordsType, Records: []int{0, 9, 10, 99, 100, 131071}},
		{Type: ValuesType},
		{Type: ValuesType, Values: vals},
		{Type: ScalarType},
	}
	for i := range vals {
		results = append(results,
			&Result{Type: ValuesType, Values: vals[i : i+1]},
			&Result{Type: ScalarType, Values: vals[i : i+1]})
	}
	for _, r := range results {
		if got, w := r.String(), want(r); got != w {
			t.Errorf("String = %q, want %q", got, w)
		}
	}
}
