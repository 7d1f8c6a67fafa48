package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"nlexplain/internal/dcs"
	"nlexplain/internal/export"
	"nlexplain/internal/provenance"
	"nlexplain/internal/qrand"
	"nlexplain/internal/render"
	"nlexplain/internal/table"
)

// medalsTable is the Figure 6 / Example 5.2 table.
func medalsTable() *table.Table {
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

// standingsTable is a medals-shaped table past the sampling threshold,
// every nation on one row, so a difference of two lookups is defined
// and Section 5.3 picks one record per operand (Figure 7's layout).
func standingsTable() *table.Table {
	rows := make([][]string, 48)
	for i := range rows {
		nation := "Nation" + strconv.Itoa(i)
		switch i {
		case 17:
			nation = "Fiji"
		case 33:
			nation = "Tonga"
		}
		rows[i] = []string{strconv.Itoa(i + 1), nation, strconv.Itoa(300 - 5*i), strconv.Itoa(i % 7)}
	}
	return table.MustNew("standings", []string{"Rank", "Nation", "Total", "Group"}, rows)
}

// gamesTable is the 120-row, 6-column table shaped like the benchmark's
// web corpus: a key column, two categorical columns, three integer
// columns. The miss-path allocation gate measures on it too.
func gamesTable() *table.Table {
	rng := rand.New(rand.NewSource(22))
	nations := []string{"Greece", "France", "China", "UK", "Brazil", "Fiji", "Tonga", "Samoa", "Nauru", "Tahiti", "Kenya", "Chile"}
	regions := []string{"North", "South", "East", "West", "Centre"}
	rows := make([][]string, 120)
	for i := range rows {
		rows[i] = []string{
			"Host" + strconv.Itoa(i),
			nations[rng.Intn(len(nations))],
			regions[rng.Intn(len(regions))],
			strconv.Itoa(1896 + rng.Intn(129)),
			strconv.Itoa(1 + rng.Intn(400)),
			strconv.Itoa(rng.Intn(151)),
		}
	}
	return table.MustNew("games", []string{"Host", "Nation", "Region", "Year", "Events", "Medals"}, rows)
}

// gamesFamilies are the benchmark's four query families over gamesTable,
// every shape benchmark/gen.go draws.
var gamesFamilies = []struct {
	name    string
	queries []string
}{
	{"lookup", []string{
		"Nation.Greece",
		"R[Year].Nation.Greece",
		"(Nation.Fiji u Region.East)",
	}},
	{"comparative", []string{
		"Events>=200",
		"R[Host].Medals<40",
		"R[Year].Prev.Nation.Kenya",
		"R[Year].R[Prev].Nation.Kenya",
		"(Events>100 u Region.West)",
	}},
	{"superlative", []string{
		"argmax(Events>=100, Medals)",
		"R[Host].argmin(Nation.Chile, Index)",
		"argmax((Greece or France), R[λx.count(Nation.x)])",
		"argmin((Greece or France), R[λx.R[Year].Nation.x])",
	}},
	{"aggregate", []string{
		"count(Nation.Brazil)",
		"count(Events>=200)",
		"max(R[Year].Nation.Greece)",
		"sum(R[Medals].Events>=200)",
		"sub(count(Nation.Greece), count(Nation.France))",
	}},
}

// explainBytes writes every rendering of one explanation into h: the
// engine's wire form, the text, ANSI and HTML tables over the rows the
// Section 5.3 threshold selects, and export's indented document. A
// failing pipeline contributes its error text.
func explainBytes(t *testing.T, h hash.Hash, tab *table.Table, q dcs.Expr) string {
	t.Helper()
	e := New(Options{CacheSize: 4, Workers: 1})
	if _, err := e.RegisterTable(tab); err != nil {
		t.Fatal(err)
	}
	var wire []byte
	ex, err := e.Explain(context.Background(), tab.Name(), q.String())
	if err != nil {
		fmt.Fprintf(h, "explain error: %v\n", err)
	} else if wire, err = json.Marshal(ex); err != nil {
		t.Fatal(err)
	}
	h.Write(wire)

	hl, err := provenance.Highlight(q, tab)
	if err != nil {
		fmt.Fprintf(h, "highlight error: %v\n", err)
	} else {
		var rows []int
		if tab.NumRows() > provenance.SampleThreshold {
			rows = provenance.Sample(q, tab, hl)
		}
		fmt.Fprintf(h, "rows %v\n", rows)
		h.Write([]byte(render.Text(tab, hl, rows)))
		h.Write([]byte(render.ANSI(tab, hl, rows)))
		h.Write([]byte(render.HTML(tab, hl, rows)))
	}

	doc, err := export.Marshal(q, tab)
	if err != nil {
		fmt.Fprintf(h, "export error: %v\n", err)
	}
	h.Write(doc)
	return string(wire)
}

// TestExplainBytesGolden pins every byte an explanation leaves the
// process as — the /v1/explain body, the text and HTML renderings and
// export's document — by SHA-256 per case. A representation change
// under the pipeline must leave every hash alone; a deliberate change
// to an output regenerates them (the failure message prints the new
// value).
func TestExplainBytesGolden(t *testing.T) {
	olympics := olympics(t)
	games := gamesTable()
	wide := standingsTable()
	empty := table.MustNew("empty", []string{"Year", "City"}, nil)

	type goldenCase struct {
		name  string
		tab   *table.Table
		query string
		// contains lists fragments the wire form must hold: the edges a
		// hash names but does not show.
		contains []string
	}
	cases := []goldenCase{
		// (a) The paper's fixtures.
		{"figure1", olympics, "max(R[Year].Country.Greece)", nil},
		{"example4.3", olympics, "R[Year].City.Athens", nil},
		{"example5.2", medalsTable(), "sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)", nil},
		{"figure7-difference", wide, "sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)",
			[]string{`"rows":[0,17,33]`, `"sampled":true`}},
		// (d) Edges: empty levels, one-row sample, zero-row table, union,
		// the two shifts.
		{"atlantis", games, "Nation.Atlantis",
			[]string{`"output":[]`, `"execution":[]`, `"rows":[0]`}},
		{"zero-rows", empty, "City.Athens",
			[]string{`"output":[]`, `"execution":[]`, `"columns":[]`, `"rows":[]`, `"cells":[]`}},
		{"union", olympics, "R[City].Country.(Greece or France)", nil},
		{"union-sampled", games, "(Nation.Greece or Nation.France)", nil},
		{"prev", olympics, "R[City].Prev.City.London", nil},
		{"next", olympics, "R[City].R[Prev].City.Athens", nil},
	}
	// (c) The benchmark's four families on a table sampling applies to.
	for _, fam := range gamesFamilies {
		for i, q := range fam.queries {
			cases = append(cases, goldenCase{name: fam.name + "-" + strconv.Itoa(i), tab: games, query: q})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			wire := explainBytes(t, h, tc.tab, dcs.MustParse(tc.query))
			for _, frag := range tc.contains {
				if !strings.Contains(wire, frag) {
					t.Errorf("%s: wire form lacks %s:\n%s", tc.query, frag, wire)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != explainGolden[tc.name] {
				t.Errorf("%s on %s: bytes hash to %s, golden %s", tc.query, tc.tab.Name(), got, explainGolden[tc.name])
			}
		})
	}

	// (b) 200 seeded random (table, query) pairs under one hash.
	t.Run("qrand", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2019))
		h := sha256.New()
		for i := 0; i < 200; i++ {
			tab := qrand.Table(rng)
			q := qrand.Query(rng, tab, 1+rng.Intn(3))
			fmt.Fprintf(h, "pair %d\n", i)
			explainBytes(t, h, tab, q)
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), explainGolden["qrand"]; got != want {
			t.Errorf("200 qrand pairs hash to %s, golden %s", got, want)
		}
	})
}

// TestParseQuestionGolden pins every field ParseQuestion returns —
// rank, query, utterance, score bits and result preview — for every
// question of the default generated dataset, by one SHA-256 per depth:
// the paper's display depth k = 7, and 1 000, past every pool, so the
// leg reaches each candidate's last rank. The pools are computed by the
// first leg and served from the parse cache to the second.
func TestParseQuestionGolden(t *testing.T) {
	e := New(Options{CacheSize: 2048, Workers: 2})
	corpus := parseCorpus(t, e)
	ctx := context.Background()
	for _, depth := range []int{7, 1000} {
		h := sha256.New()
		candidates := 0
		for i, ex := range corpus {
			cands, err := e.ParseQuestion(ctx, ex.Table.Name(), ex.Question, depth)
			if err != nil {
				t.Fatalf("%q on %s: %v", ex.Question, ex.Table.Name(), err)
			}
			fmt.Fprintf(h, "question %d: %d\n", i, len(cands))
			for _, c := range cands {
				fmt.Fprintf(h, "%d\x00%s\x00%s\x00%016x\x00%s\n", c.Rank, c.Query, c.Utterance, math.Float64bits(c.Score), c.Result)
			}
			candidates += len(cands)
		}
		t.Logf("top_k %d: %d questions, %d candidates", depth, len(corpus), candidates)
		name := "top_k " + strconv.Itoa(depth)
		if got := hex.EncodeToString(h.Sum(nil)); got != parseGolden[name] {
			t.Errorf("%s: candidates hash to %s, golden %s", name, got, parseGolden[name])
		}
	}
}

// parseGolden holds the SHA-256 of ParseQuestion's output per depth.
var parseGolden = map[string]string{
	"top_k 7":    "62d7ef10a582068d12bbd75a438470c45da4defa7e30d4a430a3a789cf7a77e0",
	"top_k 1000": "ed0dbff1481af828f0ed3d080f379702a850cc88462dc71b024d4f85a2e6360a",
}

// explainGolden holds the SHA-256 of every case's bytes.
var explainGolden = map[string]string{
	"figure1":            "533d180bb2490107d4c37b93ab033dca00fcdcf8a66cef2ea3bc69f6548fd3bb",
	"example4.3":         "37468eb41c2818230b9dcf56d73d304d66f1a17f6b2e7e1f8919963891585f7d",
	"example5.2":         "4fab836c2c6e16aa3a19ea617b45b6dba081f7753451903f9d4d49c0088f3724",
	"figure7-difference": "e4af77565c69e79ced72e070e070fef221beffab74f4e658a6de1567f05d050c",
	"atlantis":           "7256ae66b270c1fcb2b6aeb8b939132b64d565f99019e9a21cc70156a6fae16b",
	"zero-rows":          "479cf41f4cbb965fc70a8295279ed9a85b80549d73a01c6c4759c0897d46925a",
	"union":              "b262e9b335d74e37633f388c3957c85f5124e07cfe8dbe61582d6e129bdb0ea4",
	"union-sampled":      "095f1b700b2ea8d165cbfb973495f1ebaf3282778cd2dc21108552e4e49eae22",
	"prev":               "3d59f0de14e1d7c036615d2f36bbfc09dd30d5fe6b310317391361d64cfe8d5b",
	"next":               "22809a967e3ab6cc5060b6414346046d3fce6426a93bc369f51b1cb1736a8cfc",
	"lookup-0":           "9b2a6af5bef7634ac746d849b2250120d39f7bd8a21d117b1f3fd5d2721f4fa5",
	"lookup-1":           "e29358660fe525a4c644265f55951b956bd253a327802af924d453f7f73fe68b",
	"lookup-2":           "53c7272573809813cdc829858e9ed8e033fcf1ba5b9aa092312ca7968ca381eb",
	"comparative-0":      "b7fa5aa58a52238cbd5ce83776184d46e55380632ab6f56c66dc19b52a5d30cd",
	"comparative-1":      "becd0be795f4db2a6fe8ac23465c93fb0094b0fa9ec85adecc66e592aec69341",
	"comparative-2":      "d3b1ebf24e4ed5a11070595cde1d33b847be1776cc9ab7948e41c897606dc887",
	"comparative-3":      "d4dd21ed1a4a343ecc2d3d3672369f872c21482ea485ad673184ca0c338c7a32",
	"comparative-4":      "f1a0fbca009777d31821ed81fb7f5a87c3d55e3d18f17765821d24b22c66c263",
	"superlative-0":      "a9bd38c8c8c5e6792bdbba3045e620bda46ef8f1f6cc7d39971c131f969c3ce8",
	"superlative-1":      "f7dc26af5a52c0780293f268da878495b0e303955af9d9bf119c87416138a158",
	"superlative-2":      "4e71c3f32270ce1b7a34f0b8d32c67c51c1b37c22da07603bb59eb0878bebcb5",
	"superlative-3":      "ebc13f5639b54870247f1decf5f5271fe2e65728bd512cd153b5ef590ef29657",
	"aggregate-0":        "16837bfce78e38169beca9a47238e39d3ed29b097ae74b5e608dc88aadb4244a",
	"aggregate-1":        "3a4b887825766408c34947e3c3dd62ab9bc95bb0b04389c30ea1ec1c34da6091",
	"aggregate-2":        "8c7f43b3682a052a1f6a1b5da83dbc07d7765863b5c0e4b8146f90fc564ba511",
	"aggregate-3":        "11da0b679c2854291bdb1342f08bdfa4e3f0f67d40f37e2aef27262ffd70fe54",
	"aggregate-4":        "ff097d4530619ac76d3b637e22e93b469e5c793c3c602df96790300e0d6736f4",
	"qrand":              "f58879f945fb096ed79d0f29c30c26c768dd520e1bab03446cdcc4b52194d925",
}
