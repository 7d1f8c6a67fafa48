package engine

import (
	"bytes"
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

// explainBytes writes every rendering of one explanation: into wire,
// the engine's wire form and the text, ANSI and HTML tables over the
// rows the Section 5.3 threshold selects; into doc, the library's
// indented document, which must be the engine's explanation without
// its version. A failing pipeline contributes its error text.
func explainBytes(t *testing.T, wire, doc hash.Hash, tab *table.Table, q dcs.Expr) string {
	t.Helper()
	e := New(Options{CacheSize: 4, Workers: 1})
	if _, err := e.RegisterTable(tab); err != nil {
		t.Fatal(err)
	}
	var body []byte
	ex, err := e.Explain(context.Background(), tab.Name(), q.String())
	if err != nil {
		fmt.Fprintf(wire, "explain error: %v\n", err)
	} else if body, err = json.Marshal(ex); err != nil {
		t.Fatal(err)
	}
	wire.Write(body)

	hl, err := provenance.Highlight(q, tab)
	if err != nil {
		fmt.Fprintf(wire, "highlight error: %v\n", err)
	} else {
		var rows []int
		if tab.NumRows() > provenance.SampleThreshold {
			rows = provenance.Sample(q, tab, hl)
		}
		fmt.Fprintf(wire, "rows %v\n", rows)
		wire.Write([]byte(render.Text(tab, hl, rows)))
		wire.Write([]byte(render.ANSI(tab, hl, rows)))
		wire.Write([]byte(render.HTML(tab, hl, rows)))
	}

	lib, err := export.Marshal(q, tab)
	if err != nil {
		fmt.Fprintf(doc, "export error: %v\n", err)
	}
	doc.Write(lib)
	if ex != nil {
		unversioned := *ex
		unversioned.Version = ""
		if want, err := json.MarshalIndent(&unversioned, "", "  "); err != nil || !bytes.Equal(lib, want) {
			t.Errorf("%s on %s: library document differs from the engine's explanation (%v):\n%s\nwant:\n%s", q, tab.Name(), err, lib, want)
		}
	}
	return string(body)
}

// TestExplainBytesGolden pins every byte an explanation leaves the
// process as by two SHA-256 per case: wire, the /v1/explain body and
// the text, ANSI and HTML renderings; doc, the library's document. A
// representation change under the pipeline must leave every hash
// alone; a deliberate change to an output regenerates the hashes of
// that output alone (the failure message prints the new value).
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
			wire, doc := sha256.New(), sha256.New()
			body := explainBytes(t, wire, doc, tc.tab, dcs.MustParse(tc.query))
			for _, frag := range tc.contains {
				if !strings.Contains(body, frag) {
					t.Errorf("%s: wire form lacks %s:\n%s", tc.query, frag, body)
				}
			}
			checkExplainGolden(t, tc.name, wire, doc)
		})
	}

	// (b) 200 seeded random (table, query) pairs under one hash.
	t.Run("qrand", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2019))
		wire, doc := sha256.New(), sha256.New()
		for i := 0; i < 200; i++ {
			tab := qrand.Table(rng)
			q := qrand.Query(rng, tab, 1+rng.Intn(3))
			fmt.Fprintf(wire, "pair %d\n", i)
			fmt.Fprintf(doc, "pair %d\n", i)
			explainBytes(t, wire, doc, tab, q)
		}
		checkExplainGolden(t, "qrand", wire, doc)
	})
}

// checkExplainGolden compares one case's two hashes with its golden.
func checkExplainGolden(t *testing.T, name string, wire, doc hash.Hash) {
	t.Helper()
	want := explainGolden[name]
	if got := hex.EncodeToString(wire.Sum(nil)); got != want.wire {
		t.Errorf("%s: wire bytes hash to %s, golden %s", name, got, want.wire)
	}
	if got := hex.EncodeToString(doc.Sum(nil)); got != want.doc {
		t.Errorf("%s: doc bytes hash to %s, golden %s", name, got, want.doc)
	}
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

// explainGolden holds the SHA-256 of every case's wire and doc bytes.
var explainGolden = map[string]struct{ wire, doc string }{
	"figure1":            {"2919f370704bf3fa757d04d1d243e197b36e90cd61cfb1beb033c39f13531f44", "787e7c91952c9bcb77524243c7c60ac6d4ea65d70ba06bc980ff18a2d3036a26"},
	"example4.3":         {"17bdbdb8da6cde2ce974f39450a7d982179b076c97590de652132243ec79e178", "b2359d178b68e4b94f4da10b2f993470024e83f25fe28cd37a70944d91c815f6"},
	"example5.2":         {"54714c9f7aeeb2c4943161f550df056829bb854f92f7a4d97b34adac9b2c1879", "ff9c53b7bf7ef1ce73fae1b72b2af219d58b87824ec392c475ec7c3e022a099d"},
	"figure7-difference": {"033964a179d99fe4f776e65be677aa2d5d6f5d3f44cd54ce4db245323982c198", "540b3fb24a34dd45b3571d192c97285ae9654444cc424bc3fa5d915f66cebc3e"},
	"atlantis":           {"c44a948bc706789c4925d62e9f1c56d4b353196893ab2decb6c944e2fee1145d", "cd4ffefe4f79504d6d291116df76e6a56b7cf143552b0d904a6d7ac815b25024"},
	"zero-rows":          {"41b926a7d68b026741097ccc233c8cea27f3b65d00abed4a4bd40236b326fcab", "a177b6a0e33e4632a6b90c07ab34d6012d04faa17d4db20e085fad658c993919"},
	"union":              {"5149fc7c4a07268852444ecc9014d6fa19b015d56ac89a9910dce37919eb65a3", "7ebd3dafc3b27389034591af82cbdcded03d5990b55b2c9bd930d0eb0460a62d"},
	"union-sampled":      {"cbf8045ee4282f1150ce77b50a14e8c9fa2881ed2a5588abe69a62399c6ed645", "af2b4623d118dfbf1f6833736274057daa42958aa1d6ede43cf6f77c0613f391"},
	"prev":               {"7fb96bcefd7b3a2d94e6cc53922600948513160b62ced72bdbcca68e5708f422", "a056168fb7854eb0709f5563644c31d25fc214dc09d6f2ab70fb9976c7cca003"},
	"next":               {"4fcef772b64cae6d99af4468d15353b9d8865bce921e515aee0db21ba1ec98b2", "fb58e341ae95cceee591cd97b1d6668c1172f7483416c17968de2fc1babb43bf"},
	"lookup-0":           {"180c11454eebe1847b5eb1c0b2d345ebdd4a166d92ebc3c39c4b92523731ffee", "9d71e2799ebeaaa70e3df444c2d03531f82ef0e3af50c69411b748c2ab4734c2"},
	"lookup-1":           {"69bb2ec1b790bd5b2c6e88e1511171713a63c2334fa439deaeecf07a03384f53", "d8997d9e1aa417db49069967d8e972269bcfa0f93b2187a6f187181b3d1f5d78"},
	"lookup-2":           {"426c7ee2d52e3bb3a15058351c0e4d02b2dd10af30fc193abdc361da1cccace2", "41114d08dd6e8a37f2ee4e006f20d05bad7424aaef7fed0ee8c820e71589008d"},
	"comparative-0":      {"92f2e8ca5374c8b4b0d98fbbb42c3e9166efc14b309571745c9bb228cc1f3394", "49c2234dfe9430e28fa26f5b04406592eec5b3c6997ec129a73dcdfebae72124"},
	"comparative-1":      {"cc2dcfa70169ab4b75b2b6fcfac55ee826ab34aeba6fce371b1348092172e9cf", "cda2907dfb8efd8b01e9d2e3ed2f6f4bce71dc26da47e361bf49edc540e0d804"},
	"comparative-2":      {"2de651d34cc8b77eefff04d740b14677dd816742cbd8825e35a3199cb212bce5", "fcefce533f7ce95475ce010163f638c24c57ba96e1030e4787eb0143affa976a"},
	"comparative-3":      {"bbdfbafe90bcbb54782d4676942238b17024f6781321f840a4662b774e031ff0", "9167e9dc04f92faf690ccac2bbe6dccf0b8ee88e72ee9a268ffb80e5ec97b62e"},
	"comparative-4":      {"b2af34d0b7130c726527be1fafeec5d669f75c9eb2680bc6cdc7002b6ff7adc1", "c9fcdd1fa77b171088eb2f45b4bfe093731e4a0f5a16b81347f3b481ff97439b"},
	"superlative-0":      {"247f96abfb535d8d6c9eeae85c4a6a2d8e0ceaaec97caf7613cf9aebcf54f3d2", "0858e7047df67a2546e93bd7f52b712733d5b5d940501d2900d7dd21bda557fa"},
	"superlative-1":      {"fec628b02798e5a20c5a9224d1f6f5bd020f11a5442a46c70b00ba233a1cb9cd", "1f41cfe5fa2eac5fa8337f64b1b12975d1ad21f43aeced4b069ba003a36b48be"},
	"superlative-2":      {"787cdb2dc3443ec9abcbd64f7eb8f85d0f4b4ccb7ee707af19f3f7209d0ca008", "ea07a9ff762af2ee87d05252e66646e61d7f648c3b27ff468909d02c689c5055"},
	"superlative-3":      {"1e770c9e54bfd92df86b92a81bfebcab0e6efd12a3181aa7c74cbdfcdf9058c2", "5adbf5f3f6be5b43f3f9af85a16d24d185f9eef58056dcdba726a5dec7f10c94"},
	"aggregate-0":        {"662c8bc39ecd148734b5a09ea1d78fdd91bdab4031544eb5b5c8a1f14bf3d863", "02dc8a75aa3ecef878545e02a087a7c9959751166699864b1ba571970bc6e98a"},
	"aggregate-1":        {"603bad5c689ae3e9d58863d75218cc9016b7c450c18147ad334068156df3a039", "57d297907da3d88ed243026ec38285b65545bbd37e5e153122d2d8c5d86096ee"},
	"aggregate-2":        {"abe6e713d0752602ce7bc672b60d0272884762da5749deff25e27792d5398072", "5583776a516f6eb7fc79824eb51a05e0f99d7dc2f2be6935b07fc483169fabe8"},
	"aggregate-3":        {"389b28f4cbea9323670e765f1b29446fe50adb49e7fa17fcc23e89e1793a7ff8", "29c8f513ff7cb49f5382edd1a8c374da8bd85201f9a79d58872244ad4eb9086e"},
	"aggregate-4":        {"2af6c875aceef64f6323d6fe7ac57d14d60270388b08ae91f7a3ea516e01f3af", "aa1797ed7922266c5b4499ef6839dbb3580e5db56c5443a0db03cc113ce44e96"},
	"qrand":              {"5490a054e329d5d417f795d0f01e5bd14615c06e243b6f17c853966bf8c60700", "7c2a7894c54f955c5abcfeecfd071ec6dec147e28a258163bcf3005de50cdaf9"},
}
