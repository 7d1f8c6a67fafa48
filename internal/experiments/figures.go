package experiments

import (
	"fmt"
	"sort"
	"strings"

	"nlexplain/internal/dcs"
	"nlexplain/internal/export"
	"nlexplain/internal/minisql"
	"nlexplain/internal/render"
	"nlexplain/internal/table"
	"nlexplain/internal/utterance"
)

// Built-in tables reproducing the paper's figures.
var (
	olympicsTable = table.MustNew("olympics",
		[]string{"Year", "Country", "City"},
		[][]string{
			{"1896", "Greece", "Athens"},
			{"1900", "France", "Paris"},
			{"2004", "Greece", "Athens"},
			{"2008", "China", "Beijing"},
			{"2012", "UK", "London"},
			{"2016", "Brazil", "Rio de Janeiro"},
		})

	playersTable = table.MustNew("players",
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

	medalsTable = table.MustNew("medals",
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

	uslTable = table.MustNew("usl",
		[]string{"Year", "League", "Attendance", "Open Cup"},
		[][]string{
			{"2002", "USL A-League", "6,260", "Did not qualify"},
			{"2003", "USL A-League", "5,871", "Did not qualify"},
			{"2004", "USL A-League", "5,628", "4th Round"},
			{"2005", "USL First Division", "6,028", "4th Round"},
			{"2006", "USL First Division", "5,575", "3rd Round"},
		})

	shipwrecksTable = table.MustNew("shipwrecks",
		[]string{"Ship", "Vessel", "Lake", "Lives lost"},
		[][]string{
			{"Argus", "Steamer", "Lake Huron", "25 lost"},
			{"Hydrus", "Steamer", "Lake Huron", "28 lost"},
			{"Plymouth", "Barge", "Lake Michigan", "7 lost"},
			{"Issac M. Scott", "Steamer", "Lake Huron", "28 lost"},
			{"Henry B. Smith", "Steamer", "Lake Superior", "all hands"},
			{"Lightship No. 82", "Lightship", "Lake Erie", "6 lost"},
		})

	templesTable = table.MustNew("temples",
		[]string{"Temple", "Town", "Prefecture"},
		[][]string{
			{"Iwaya-ji", "Kumakogen", "Ehime"},
			{"Yakushi Nyorai", "Matsuyama", "Ehime"},
			{"Amida Nyorai", "Matsuyama", "Ehime"},
			{"Shaka Nyorai", "Matsuyama", "Ehime"},
			{"Yakushi Nyorai II", "Matsuyama", "Ehime"},
			{"Yokomine-ji", "Saijo", "Ehime"},
			{"Fudo Myoo", "Imabari", "Ehime"},
			{"Jizo Bosatsu", "Imabari", "Ehime"},
		})
)

// FigureTable returns the table a numbered figure renders over.
func FigureTable(n int) *table.Table {
	switch n {
	case 4, 12:
		return playersTable
	case 6, 17:
		return medalsTable
	case 8:
		return uslTable
	case 9:
		return shipwrecksTable
	case 18:
		return templesTable
	case 7:
		return growthTable()
	default:
		return olympicsTable
	}
}

// growthTable synthesizes the large BigQuery-style growth-rate table of
// Figure 7 (the paper samples three rows out of a public dataset).
func growthTable() *table.Table {
	var rows [][]string
	countries := []string{"Burkina Faso", "Madagascar", "Kenya", "Chile", "Norway"}
	for i := 0; i < 20000; i++ {
		c := countries[i%len(countries)]
		year := 1960 + (i/len(countries))%55
		rate := fmt.Sprintf("%d.%03d", i%4, (i*37)%1000)
		rows = append(rows, []string{c, fmt.Sprint(year), rate})
	}
	return table.MustNew("growth", []string{"Country", "Year", "Growth Rate"}, rows)
}

// figureSpec describes one figure: its caption and its query (or
// queries). A figure over a table past the Section 5.3 threshold draws
// the sampled records alone, as the explanation document does.
type figureSpec struct {
	caption string
	queries []string
}

var figureSpecs = map[int]figureSpec{
	1: {caption: "Querying a table of Olympic games (running example)",
		queries: []string{"max(R[Year].Country.Greece)"}},
	4: {caption: "Comparison", queries: []string{"R[Games].Games>4"}},
	5: {caption: "Superlative (values)",
		queries: []string{"argmax((London or Beijing), R[λx.R[Year].City.x])"}},
	6: {caption: "Difference (values)",
		queries: []string{"sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)"}},
	7: {caption: "Scaling highlights to a large table (record sampling)",
		queries: []string{`max(R["Growth Rate"].Country.Madagascar)`}},
	8: {caption: "Correct & incorrect query both returning the same answer",
		queries: []string{
			`max(R[Year].League."USL A-League")`,
			`min(R[Year].argmax(Record, "Open Cup"))`,
		}},
	9: {caption: "Identifying the correct query through provenance-based highlights",
		queries: []string{
			`sub(count(Lake."Lake Huron"), count(Lake."Lake Erie"))`,
			`sub(count(Lake."Lake Huron"), count(Lake."Lake Superior"))`,
			`count(argmax(Lake."Lake Huron", "Lives lost"))`,
		}},
	11: {caption: "Simple Join", queries: []string{"Country.Greece"}},
	12: {caption: "Comparison", queries: []string{"Games>4"}},
	13: {caption: "Reverse Join", queries: []string{"R[Year].City.Athens"}},
	14: {caption: "Previous", queries: []string{"R[City].Prev.City.London"}},
	15: {caption: "Next", queries: []string{"R[City].R[Prev].City.Athens"}},
	16: {caption: "Aggregation", queries: []string{"count(City.Athens)"}},
	17: {caption: "Difference (values)",
		queries: []string{"sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)"}},
	18: {caption: "Difference (occurrences)",
		queries: []string{"sub(count(Town.Matsuyama), count(Town.Imabari))"}},
	19: {caption: "Union", queries: []string{"R[City].Country.(China or Greece)"}},
	20: {caption: "Intersection", queries: []string{"R[City].(Country.UK u Year.2012)"}},
	21: {caption: "Superlative (values)",
		queries: []string{"argmax((London or Beijing), R[λx.R[Year].City.x])"}},
	22: {caption: "Superlative (occurrences)",
		queries: []string{"argmax(Values[City], R[λx.count(City.x)])"}},
}

// FigureNumbers lists the figures the harness can render, sorted.
func FigureNumbers() []int {
	out := []int{3} // derivation-tree figure handled specially
	for n := range figureSpecs {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// RenderFigure reproduces a numbered figure as text: for each candidate
// query its utterance and the highlighted table, both from the query's
// explanation document (sampled, as for Figure 7, on a large table).
func RenderFigure(n int) (string, error) {
	if n == 3 {
		return renderFigure3(), nil
	}
	spec, ok := figureSpecs[n]
	if !ok {
		return "", fmt.Errorf("figure %d is not part of the paper's highlight gallery", n)
	}
	tab := FigureTable(n)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %d: %s\n", n, spec.caption)
	for _, src := range spec.queries {
		e, err := dcs.Parse(src)
		if err != nil {
			return "", err
		}
		doc, h, err := export.Build(e, tab, 0)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "\nquery:     %s\nutterance: %q\n", src, doc.Utterance)
		var rows []int
		if doc.Table.Sampled {
			rows = doc.Table.Rows
			fmt.Fprintf(&b, "(table has %d rows; showing the %d sampled by Section 5.3)\n",
				tab.NumRows(), len(rows))
		}
		b.WriteString(render.Text(tab, h, rows))
	}
	b.WriteString("\n" + render.Legend() + "\n")
	return b.String(), nil
}

// renderFigure3 reproduces the two derivation trees of Figure 3: the
// parser's formal derivation and the derived NL utterance.
func renderFigure3() string {
	e := dcs.MustParse("max(R[Year].Country.Greece)")
	tree := utterance.Derive(e)
	var b strings.Builder
	b.WriteString("Figure 3: derivation trees for max(R[Year].Country.Greece)\n")
	b.WriteString("(each node shows the formal sub-query and its derived utterance;\n")
	b.WriteString(" the full utterance is the yield at the root)\n\n")
	b.WriteString(tree.String())
	return b.String()
}

// equivalentOnTable cross-checks one query's lambda DCS execution
// against its SQL translation on a table, mirroring the sqlgen tests.
func equivalentOnTable(e dcs.Expr, sql string, tab *table.Table) bool {
	dres, derr := dcs.Execute(e, tab)
	sres, serr := minisql.Run(sql, tab)
	if derr != nil || serr != nil {
		return derr != nil && serr != nil ||
			(derr == nil && dres.Empty() && serr != nil && strings.Contains(serr.Error(), "empty"))
	}
	switch dres.Type {
	case dcs.RecordsType:
		got := sres.SourceRows()
		if len(got) != len(dres.Records) {
			return false
		}
		for i := range got {
			if got[i] != dres.Records[i] {
				return false
			}
		}
		return true
	default:
		want := make(map[string]bool)
		for _, v := range dres.Values {
			want[v.Key()] = true
		}
		got := make(map[string]bool)
		for _, v := range sres.FirstColumn() {
			got[v.Key()] = true
		}
		if len(want) != len(got) {
			return false
		}
		for k := range want {
			if !got[k] {
				return false
			}
		}
		return true
	}
}

// FormatTable10 renders the regenerated Table 10.
func FormatTable10(rows []Table10Row) string {
	var b strings.Builder
	b.WriteString("Table 10: Lambda DCS Operators, SQL Translation and Equivalence\n")
	for _, r := range rows {
		status := "OK"
		if !r.Equivalent {
			status = "MISMATCH"
		}
		fmt.Fprintf(&b, "  [%-8s] %-34s %s\n             SQL: %s\n", status, r.Operator, r.Query, r.SQL)
	}
	return b.String()
}
