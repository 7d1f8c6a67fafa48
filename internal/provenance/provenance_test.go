package provenance

import (
	"cmp"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"nlexplain/internal/dcs"
	"nlexplain/internal/oracle"
	"nlexplain/internal/qrand"
	"nlexplain/internal/table"
	"nlexplain/internal/utterance"
)

func olympics(t testing.TB) *table.Table {
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

func medals(t testing.TB) *table.Table {
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

func compute(t testing.TB, tab *table.Table, src string) *Prov {
	t.Helper()
	p, err := Compute(dcs.MustParse(src), tab)
	if err != nil {
		t.Fatalf("Compute(%q): %v", src, err)
	}
	return p
}

// cells lists (row, col) pairs, in any order and with repeats, as a
// level lists its cells: row-major, each once.
func cells(refs ...[2]int) []table.CellRef {
	var s []table.CellRef
	for _, r := range refs {
		s = append(s, table.CellRef{Row: r[0], Col: r[1]})
	}
	slices.SortFunc(s, rowMajor)
	return slices.Compact(s)
}

func rowMajor(a, b table.CellRef) int { return cmp.Or(a.Row-b.Row, a.Col-b.Col) }

// cellsOf lists a level's cells row-major.
func cellsOf(l table.Level) []table.CellRef { return slices.Collect(l.All()) }

func wantSet(t testing.TB, name string, got table.Level, want []table.CellRef) {
	t.Helper()
	if cells := cellsOf(got); !slices.Equal(cells, want) {
		t.Errorf("%s = %v, want %v", name, cells, want)
	}
}

// TestExample43 reproduces the provenance computation worked through in
// Example 4.3: Q = R[Year].City.Athens on the Olympics table.
func TestExample43(t *testing.T) {
	tab := olympics(t)
	p := compute(t, tab, "R[Year].City.Athens")

	// PO: the Year cells of the Athens records (rows 0 and 2).
	wantSet(t, "PO", p.Output, cells([2]int{0, 0}, [2]int{2, 0}))

	// PE: PO plus PO(City.Athens) = the matching City cells.
	wantSet(t, "PE", p.Execution,
		cells([2]int{0, 0}, [2]int{2, 0}, [2]int{0, 2}, [2]int{2, 2}))

	// PC: every cell of columns Year and City.
	var want [][2]int
	for r := 0; r < tab.NumRows(); r++ {
		want = append(want, [2]int{r, 2}, [2]int{r, 0})
	}
	wantSet(t, "PC", p.Columns, cells(want...))
}

// TestExample52 reproduces Example 5.2 / Figure 6: the difference query
// over the medals table.
func TestExample52(t *testing.T) {
	tab := medals(t)
	h, err := Highlight(dcs.MustParse("sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)"), tab)
	if err != nil {
		t.Fatal(err)
	}
	totalCol, _ := tab.ColumnIndex("Total")
	nationCol, _ := tab.ColumnIndex("Nation")

	// The cells containing 130 and 20 (Total of Fiji row 3, Tonga row 6)
	// are colored.
	if m := h.MarkingAt(3, totalCol); m != Colored {
		t.Errorf("Total@Fiji marking = %v, want colored", m)
	}
	if m := h.MarkingAt(6, totalCol); m != Colored {
		t.Errorf("Total@Tonga marking = %v, want colored", m)
	}
	// The cells Fiji and Tonga are framed.
	if m := h.MarkingAt(3, nationCol); m != Framed {
		t.Errorf("Nation@Fiji marking = %v, want framed", m)
	}
	if m := h.MarkingAt(6, nationCol); m != Framed {
		t.Errorf("Nation@Tonga marking = %v, want framed", m)
	}
	// All other cells in columns Nation and Total are lit.
	for r := 0; r < tab.NumRows(); r++ {
		if r == 3 || r == 6 {
			continue
		}
		if m := h.MarkingAt(r, totalCol); m != Lit {
			t.Errorf("Total@%d marking = %v, want lit", r, m)
		}
		if m := h.MarkingAt(r, nationCol); m != Lit {
			t.Errorf("Nation@%d marking = %v, want lit", r, m)
		}
	}
	// Cells outside Nation/Total are unrelated.
	goldCol, _ := tab.ColumnIndex("Gold")
	if m := h.MarkingAt(0, goldCol); m != None {
		t.Errorf("Gold@0 marking = %v, want none", m)
	}
}

// TestFigure1 reproduces the running example: the MAX(Year) header
// marker and the highlighted Greece rows.
func TestFigure1(t *testing.T) {
	tab := olympics(t)
	h, err := Highlight(dcs.MustParse("max(R[Year].Country.Greece)"), tab)
	if err != nil {
		t.Fatal(err)
	}
	yearCol, _ := tab.ColumnIndex("Year")
	countryCol, _ := tab.ColumnIndex("Country")

	if fn, ok := h.HeaderAggr(yearCol); !ok || fn != dcs.Max {
		t.Errorf("HeaderAggr(Year) = %v,%v, want max", fn, ok)
	}
	// Year cells of both Greece records feed the MAX: colored.
	if h.MarkingAt(0, yearCol) != Colored || h.MarkingAt(2, yearCol) != Colored {
		t.Error("Year cells of Greece records should be colored")
	}
	// The matched Country cells are framed.
	if h.MarkingAt(0, countryCol) != Framed || h.MarkingAt(2, countryCol) != Framed {
		t.Error("Greece cells should be framed")
	}
	// France's Year cell is lit only.
	if h.MarkingAt(1, yearCol) != Lit {
		t.Error("non-matching Year cells should be lit")
	}
	// Aggrs records the max.
	if len(h.Prov.Aggrs) != 1 || h.Prov.Aggrs[0] != dcs.Max {
		t.Errorf("Aggrs = %v", h.Prov.Aggrs)
	}
}

func TestCountHeaderMarker(t *testing.T) {
	// Figure 16: count(City.Athens) marks COUNT on the City header.
	tab := olympics(t)
	h, err := Highlight(dcs.MustParse("count(City.Athens)"), tab)
	if err != nil {
		t.Fatal(err)
	}
	cityCol, _ := tab.ColumnIndex("City")
	if fn, ok := h.HeaderAggr(cityCol); !ok || fn != dcs.Count {
		t.Errorf("HeaderAggr(City) = %v,%v, want count", fn, ok)
	}
	// Both counts of a difference are members of the provenance, and
	// the one header carries the one marker.
	p := compute(t, tab, "sub(count(City.Athens), count(City.London))")
	if len(p.Aggrs) != 2 || p.Aggrs[0] != dcs.Count || p.Aggrs[1] != dcs.Count {
		t.Errorf("Aggrs = %v, want two counts", p.Aggrs)
	}
	if len(p.HeaderAggrs) != 1 || p.HeaderAggrs[cityCol] != dcs.Count {
		t.Errorf("HeaderAggrs = %v, want count on City alone", p.HeaderAggrs)
	}
	// A query without aggregates marks none.
	if p := compute(t, tab, "City.Athens"); len(p.Aggrs) != 0 || len(p.HeaderAggrs) != 0 {
		t.Errorf("Aggrs = %v, HeaderAggrs = %v, want none", p.Aggrs, p.HeaderAggrs)
	}
}

func TestMostFrequentHeaderMarker(t *testing.T) {
	tab := olympics(t)
	h, err := Highlight(dcs.MustParse("argmax(Values[City], R[λx.count(City.x)])"), tab)
	if err != nil {
		t.Fatal(err)
	}
	cityCol, _ := tab.ColumnIndex("City")
	if fn, ok := h.HeaderAggr(cityCol); !ok || fn != dcs.Count {
		t.Errorf("HeaderAggr(City) = %v,%v, want count", fn, ok)
	}
	// The most-frequent superlative counts occurrences: one count.
	if len(h.Prov.Aggrs) != 1 || h.Prov.Aggrs[0] != dcs.Count {
		t.Errorf("Aggrs of most-frequent = %v, want one count", h.Prov.Aggrs)
	}
}

// TestIdenticalHighlightsDistinctQueries reproduces the Section 5.2
// observation that different queries may share identical highlights
// (the Figure 4 pair), motivating utterances as the complementary
// explanation.
func TestIdenticalHighlightsDistinctQueries(t *testing.T) {
	players := table.MustNew("players",
		[]string{"Name", "Position", "Games"},
		[][]string{
			{"Erich Burgener", "GK", "3"},
			{"Charly In-Albon", "DF", "4"},
			{"Andy Egli", "DF", "6"},
			{"Marcel Koller", "DF", "2"},
			{"Heinz Hermann", "MF", "6"},
			{"Lucien Favre", "MF", "5"},
		})
	h1, err := Highlight(dcs.MustParse("R[Games].Games>4"), players)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Highlight(dcs.MustParse("R[Games].(Games>=5 u Games<17)"), players)
	if err != nil {
		t.Fatal(err)
	}
	// The two queries share output provenance (colored cells) and column
	// provenance (lit columns): the user sees the same colored rows and
	// cannot tell them apart without the utterance. (The framed layer may
	// differ — Games<17 examines every Games cell — which is exactly why
	// the paper pairs highlights with utterances.)
	if po1, po2 := cellsOf(h1.Prov.Output), cellsOf(h2.Prov.Output); !slices.Equal(po1, po2) {
		t.Errorf("PO differs: %v vs %v", po1, po2)
	}
	if pc1, pc2 := cellsOf(h1.Prov.Columns), cellsOf(h2.Prov.Columns); !slices.Equal(pc1, pc2) {
		t.Errorf("PC differs: %v vs %v", pc1, pc2)
	}
	for r := 0; r < players.NumRows(); r++ {
		for c := 0; c < players.NumCols(); c++ {
			m1, m2 := h1.MarkingAt(r, c), h2.MarkingAt(r, c)
			if (m1 == Colored) != (m2 == Colored) {
				t.Fatalf("colored markings differ at (%d,%d): %v vs %v", r, c, m1, m2)
			}
		}
	}
}

// TestChainProperty is the central invariant of Definition 4.1:
// PO ⊆ PE ⊆ PC on random tables and queries.
func TestChainProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	trials := 1500
	if testing.Short() {
		trials = 200
	}
	for i := 0; i < trials; i++ {
		tab := qrand.Table(rng)
		q := qrand.Query(rng, tab, 1+rng.Intn(3))
		p, err := Compute(q, tab)
		if err != nil {
			continue // dynamic type errors are legal
		}
		po, pe, pc := cellsOf(p.Output), cellsOf(p.Execution), cellsOf(p.Columns)
		if !chain(p) {
			t.Fatalf("chain violated for %s\nPO=%v\nPE=%v\nPC=%v", q, po, pe, pc)
		}
		// A level lists its cells strictly ascending row-major; the
		// wire and the Section 5.3 sample read them in that order.
		if !ascending(po) || !ascending(pe) || !ascending(pc) {
			t.Fatalf("a level of %s is not strictly ascending\nPO=%v\nPE=%v\nPC=%v", q, po, pe, pc)
		}
	}
}

// TestMarkingsMatchChain: every colored cell is in PO, framed in PE∖PO,
// lit in PC∖PE (checkLevels compares each cell's marking with its
// membership in the levels).
func TestMarkingsMatchChain(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		tab := qrand.Table(rng)
		q := qrand.Query(rng, tab, 1+rng.Intn(3))
		h, err := Highlight(q, tab)
		if err != nil {
			continue
		}
		checkLevels(t, tab, q, h)
		if t.Failed() {
			t.FailNow()
		}
	}
}

func TestSampleStrata(t *testing.T) {
	tab := olympics(t)
	q := dcs.MustParse("max(R[Year].Country.Greece)")
	h, err := Highlight(q, tab)
	if err != nil {
		t.Fatal(err)
	}
	sample := Sample(q, tab, h)
	if len(sample) == 0 || len(sample) > 3 {
		t.Fatalf("sample = %v, want 1-3 records", sample)
	}
	// The first stratum representative must be an output record.
	ro := map[int]bool{}
	for c := range h.Prov.Output.All() {
		ro[c.Row] = true
	}
	found := false
	for _, r := range sample {
		if ro[r] {
			found = true
		}
	}
	if !found {
		t.Errorf("sample %v contains no output record (RO=%v)", sample, ro)
	}
	// Records come back sorted.
	for i := 1; i < len(sample); i++ {
		if sample[i] <= sample[i-1] {
			t.Errorf("sample not sorted: %v", sample)
		}
	}
}

func TestSampleDifferenceTwoOperands(t *testing.T) {
	// Section 5.3: for a difference query, two records from RO are
	// selected, one per subtracted value (Figure 6 shows Fiji and Tonga).
	tab := medals(t)
	q := dcs.MustParse("sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)")
	h, err := Highlight(q, tab)
	if err != nil {
		t.Fatal(err)
	}
	sample := Sample(q, tab, h)
	has := func(r int) bool {
		for _, s := range sample {
			if s == r {
				return true
			}
		}
		return false
	}
	if !has(3) || !has(6) {
		t.Errorf("sample %v must include both operand records 3 (Fiji) and 6 (Tonga)", sample)
	}
}

func TestSampleOnLargeTable(t *testing.T) {
	// Figure 7 scenario: a large table collapses to at most 4 sampled rows.
	var rows [][]string
	for i := 0; i < 5000; i++ {
		country := "Burkina Faso"
		if i%13 == 0 {
			country = "Madagascar"
		}
		rows = append(rows, []string{country, "1980", "2.9"})
	}
	big := table.MustNew("growth", []string{"Country", "Year", "Growth Rate"}, rows)
	q := dcs.MustParse(`max(R["Growth Rate"].Country.Madagascar)`)
	h, err := Highlight(q, big)
	if err != nil {
		t.Fatal(err)
	}
	sample := Sample(q, big, h)
	if len(sample) == 0 || len(sample) > 4 {
		t.Fatalf("sample = %v (len %d), want 1-4 rows from a 5000-row table", sample, len(sample))
	}
}

func TestComputeRejectsBadQuery(t *testing.T) {
	if _, err := Compute(dcs.MustParse("Nope.Greece"), olympics(t)); err == nil {
		t.Fatal("expected check error")
	}
}

func TestMarkingString(t *testing.T) {
	for m, want := range map[Marking]string{None: "none", Lit: "lit", Framed: "framed", Colored: "colored"} {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
}

func TestCountByMarking(t *testing.T) {
	tab := olympics(t)
	h, err := Highlight(dcs.MustParse("Country.Greece"), tab)
	if err != nil {
		t.Fatal(err)
	}
	counts := h.CountByMarking()
	if counts[Colored] != 2 {
		t.Errorf("colored = %d, want 2", counts[Colored])
	}
	if counts[Lit] != 4 { // 6 Country cells minus the 2 colored
		t.Errorf("lit = %d, want 4", counts[Lit])
	}
}

// ascending reports whether a level is in the one form it may take:
// strictly ascending row-major, so sorted and duplicate-free.
func ascending(s []table.CellRef) bool {
	for i := 1; i < len(s); i++ {
		if rowMajor(s[i-1], s[i]) >= 0 {
			return false
		}
	}
	return true
}

// checkLevels holds one highlighting to everything a level promises:
// its cells listed ascending, as many as Len says, the chain, and a
// marking per cell that agrees with membership in the levels.
func checkLevels(t testing.TB, tab *table.Table, q dcs.Expr, h *Highlights) {
	t.Helper()
	p := h.Prov
	for _, l := range []struct {
		name  string
		level table.Level
	}{{"PO", p.Output}, {"PE", p.Execution}, {"PC", p.Columns}} {
		cells := cellsOf(l.level)
		if len(cells) != l.level.Len() {
			t.Errorf("%s: %s lists %d cells, Len says %d", q, l.name, len(cells), l.level.Len())
		}
		if !ascending(cells) {
			t.Errorf("%s: %s is not strictly ascending: %v", q, l.name, cells)
		}
	}
	if !chain(p) {
		t.Errorf("chain violated for %s\nPO=%v\nPE=%v\nPC=%v", q, cellsOf(p.Output), cellsOf(p.Execution), cellsOf(p.Columns))
	}
	counts := make(map[Marking]int)
	for r := 0; r < tab.NumRows(); r++ {
		for c := 0; c < tab.NumCols(); c++ {
			ref := table.CellRef{Row: r, Col: c}
			var want Marking
			switch {
			case p.Output.Contains(ref):
				want = Colored
			case p.Execution.Contains(ref):
				want = Framed
			case p.Columns.Contains(ref):
				want = Lit
			}
			if m := h.MarkingAt(r, c); m != want {
				t.Errorf("%s: marking at %v = %v, membership says %v", q, ref, m, want)
			}
			counts[want]++
		}
	}
	got := h.CountByMarking()
	for _, m := range []Marking{Colored, Framed, Lit} {
		if got[m] != counts[m] {
			t.Errorf("%s: CountByMarking[%v] = %d, the grid holds %d", q, m, got[m], counts[m])
		}
	}
}

// TestLevelsAcrossSampleThreshold runs random queries over tables on
// both sides of the Section 5.3 threshold: the levels keep their form
// at any size, and the sample is a short ascending list of records
// that, whenever something is highlighted, shows a highlighted record
// of the innermost non-empty level.
func TestLevelsAcrossSampleThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, rows := range []int{SampleThreshold - 1, SampleThreshold, SampleThreshold + 1, 3 * SampleThreshold} {
		tab := qrand.Table(rng)
		for tab.NumRows() < rows {
			more := qrand.Table(rng).RawRows()
			if need := rows - tab.NumRows(); len(more) > need {
				more = more[:need]
			}
			var err error
			if tab, err = tab.Append(more); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 150; i++ {
			q := qrand.Query(rng, tab, 1+rng.Intn(3))
			h, err := Highlight(q, tab)
			if err != nil {
				continue // dynamic type errors are legal
			}
			checkLevels(t, tab, q, h)

			sample := Sample(q, tab, h)
			if sample == nil {
				t.Fatalf("%s on %d rows: nil sample, which renders as every record", q, rows)
			}
			if len(sample) > 4 {
				t.Errorf("%s on %d rows: sample %v, want at most 4 records", q, rows, sample)
			}
			for j, r := range sample {
				if r < 0 || r >= tab.NumRows() || (j > 0 && r <= sample[j-1]) {
					t.Errorf("%s on %d rows: sample %v is not an ascending list of records", q, rows, sample)
				}
			}
			if (len(sample) == 0) != (h.Prov.Columns.Len() == 0) {
				t.Errorf("%s on %d rows: sample %v with %d highlighted cells", q, rows, sample, h.Prov.Columns.Len())
			}
			for _, l := range []table.Level{h.Prov.Output, h.Prov.Execution, h.Prov.Columns} {
				level := cellsOf(l)
				if len(level) == 0 {
					continue
				}
				if !slices.ContainsFunc(level, func(c table.CellRef) bool {
					return slices.Contains(sample, c.Row)
				}) {
					t.Errorf("%s on %d rows: sample %v shows no record of its innermost level %v", q, rows, sample, level)
				}
				break
			}
		}
	}
}

// hostileTable is FuzzPlanDifferential's table: a NaN cell, Unicode
// case folds, fractions that do not add up in any order but one, and a
// record of empty cells.
func hostileTable() *table.Table {
	return table.MustNew("olympics",
		[]string{"Year", "Country", "City", "Score"},
		[][]string{
			{"1896", "Greece", "Athens", "0.1"},
			{"1900", "France", "Paris", "0.2"},
			{"2004", "Greece", "Athens", "0.3"},
			{"2008", "China", "Beijing", "1e16"},
			{"2012", "UK", "London", "-1e16"},
			{"nan", "ſ", "Straße", "0.7"},
			{"", "", "", ""},
		})
}

// FuzzHighlight fuzzes query strings through the explanation's two
// halves. Any text either fails to parse, fails to check or execute
// with an error, or is highlighted — without a panic, into levels that
// are ascending, nested, in agreement with every cell's marking and
// equal, level by level, to Definition 4.1 evaluated literally
// (oracle.Provenance) — and any parsed query has an utterance.
func FuzzHighlight(f *testing.F) {
	for _, src := range []string{
		"Country.Greece",
		"City.Nowhere",
		"(Country.Greece or Country.China)",
		"(City.London u Country.UK)",
		"R[City].Country.(China or Greece)",
		"R[City].Prev.City.London",
		"R[City].R[Prev].City.Athens",
		"count(City.Athens)",
		"max(R[Year].Country.Greece)",
		"avg(R[Score].Year>1896)",
		"sum(R[City].Country.Greece)",
		"max(R[Year].Country.Atlantis)",
		"sub(R[Year].City.London, R[Year].City.Beijing)",
		"sub(count(City.Athens), count(City.London))",
		"argmax(Record, Year)",
		"R[Year].argmin(City.Athens, Index)",
		"argmax(Values[City], R[λx.count(City.x)])",
		"argmin((London or Beijing), R[λx.R[Year].City.x])",
		"(Year>1896 u Year<=2008)",
		"Score!=0.2",
		`"nan"`,
		`""`, // the empty value still has a name in the utterance
	} {
		f.Add(src)
	}
	tab := hostileTable()
	f.Fuzz(func(t *testing.T, src string) {
		q, err := dcs.Parse(src)
		if err != nil {
			return
		}
		if utterance.Utter(q) == "" {
			t.Errorf("%q: empty utterance", src)
		}
		h, err := Highlight(q, tab)
		want, werr := oracle.Provenance(q, tab)
		if (err != nil) != (werr != nil) {
			t.Fatalf("%q: highlight error %v, reference error %v", src, err, werr)
		}
		if err != nil {
			return
		}
		checkLevels(t, tab, q, h)
		p := h.Prov
		for _, l := range []struct {
			name      string
			got, want []table.CellRef
		}{{"PO", cellsOf(p.Output), want.Output}, {"PE", cellsOf(p.Execution), want.Execution}, {"PC", cellsOf(p.Columns), want.Columns}} {
			if !slices.Equal(l.got, l.want) {
				t.Errorf("%q: %s = %v, the definition gives %v", src, l.name, l.got, l.want)
			}
		}
		if !slices.Equal(p.Aggrs, want.Aggrs) || !maps.Equal(p.HeaderAggrs, want.HeaderAggrs) {
			t.Errorf("%q: aggregates %v on headers %v, the definition gives %v on %v", src, p.Aggrs, p.HeaderAggrs, want.Aggrs, want.HeaderAggrs)
		}
	})
}

// chain reports whether the provenance chain PO ⊆ PE ⊆ PC of
// Definition 4.1 holds.
func chain(p *Prov) bool {
	subset := func(inner, outer table.Level) bool {
		for c := range inner.All() {
			if !outer.Contains(c) {
				return false
			}
		}
		return true
	}
	return subset(p.Output, p.Execution) && subset(p.Execution, p.Columns)
}
