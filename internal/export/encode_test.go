package export

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"nlexplain/internal/dcs"
	"nlexplain/internal/provenance"
	"nlexplain/internal/qrand"
	"nlexplain/internal/render"
	"nlexplain/internal/table"
)

// hostile are strings every escaping rule of encoding/json touches:
// HTML characters, the quote and the backslash, control bytes, DEL,
// invalid UTF-8, the two line separators JavaScript forbids, and
// well-formed non-ASCII text.
var hostile = []string{
	"", "plain", `<b>&amp;</b>`, `say "hi"`, `C:\path`, "tab\tnew\nline\r",
	"\x00\x01\x1f", "\x7f", "bad\xffutf8\xc3", "line\u2028para\u2029", "Zürich", "東京", "emoji 🏅",
}

// checkDocument holds the encoder to json.MarshalIndent for d at depths
// 0 to 3: a document nested n levels deep is MarshalIndent's with n
// indents as its prefix.
func checkDocument(t *testing.T, what string, d *ExplanationJSON) {
	t.Helper()
	for depth := 0; depth < 4; depth++ {
		want, err := json.MarshalIndent(d, strings.Repeat("  ", depth), "  ")
		if err != nil {
			t.Fatal(err)
		}
		if got := d.AppendIndent([]byte("x"), depth); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("%s at depth %d:\n%s\nwant:\n%s", what, depth, got, want)
		}
	}
}

// TestAppendIndentMatchesEncodingJSON holds the hand-written encoder to
// encoding/json over built documents (seeded random tables and queries,
// and a table of hostile cells) and over documents whose every slice is
// nil, empty or hostile.
func TestAppendIndentMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(2019))
	built := 0
	for i := 0; i < 200; i++ {
		tab := qrand.Table(rng)
		q := qrand.Query(rng, tab, 1+rng.Intn(3))
		if d, _, err := Build(q, tab, 0); err == nil {
			checkDocument(t, q.String(), d)
			built++
		}
	}
	if built < 100 {
		t.Fatalf("%d of 200 random queries built a document", built)
	}

	rows := make([][]string, 0, 300)
	for i := 0; i < 300; i++ {
		rows = append(rows, []string{hostile[i%len(hostile)], []string{"Athens", "Paris"}[i%2], strings.Repeat("7", 1+i%3)})
	}
	tab := table.MustNew(`<hostile & "odd">`, []string{"Text", "City", "Year"}, rows)
	for _, q := range []string{"count(City.Athens)", "max(R[Year].City.Paris)", "R[Text].City.Athens", "sub(max(R[Year].City.Athens), min(R[Year].City.Paris))"} {
		for _, threshold := range []int{0, 1000} {
			d, _, err := Build(dcs.MustParse(q), tab, threshold)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			checkDocument(t, q, d)
		}
	}

	// Cells (0,1) and (2,0) of a three-row table, and the first alone.
	cells := []table.Span{{Col: 0, Rows: []int32{2}}, {Col: 1, Rows: []int32{0}}}
	for i, s := range hostile {
		d := &ExplanationJSON{Name: s, Version: s, Query: s, Utterance: s, SQL: s, Result: s,
			Table: render.Grid{Name: s, Headers: []string{s, "b"}, Rows: []int{0, 7},
				Cells: [][]render.Cell{{{Text: s, Marking: s}, {Text: "x"}}, {}, nil}, Sampled: i%2 == 0},
			Provenance: ProvJSON{Output: table.NewLevel(3, cells), Execution: table.NewLevel(3, cells[1:]), Columns: table.NewLevel(3, cells),
				Aggrs: []string{"max", s}, HeaderAggrs: map[string]string{s: "max", s + "z": s, "Year": "min"}},
		}
		checkDocument(t, "hostile "+s, d)
	}
	checkDocument(t, "nil slices", &ExplanationJSON{})
	checkDocument(t, "empty slices", &ExplanationJSON{
		Table:      render.Grid{Headers: []string{}, Rows: []int{}, Cells: [][]render.Cell{}},
		Provenance: ProvJSON{Output: table.Level{}, Execution: table.Level{}, Columns: table.Level{}, Aggrs: []string{}, HeaderAggrs: map[string]string{}},
	})
}

// FuzzAppendString holds the string encoder to json.Marshal for any
// bytes.
func FuzzAppendString(f *testing.F) {
	for _, s := range hostile {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); !bytes.Equal(got[1:], want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal %s", s, got[1:], want)
		}
	})
}

// FuzzGridView holds a view's grid to the grid holding its cells: for a
// random query over a random table — some over the Section 5.3 sampling
// threshold of 40 rows, some with a hostile cell — the bytes
// render.Grid.AppendIndent writes of the document's view equal
// json.MarshalIndent's of render.JSONGrid for the same highlights, and
// encoding/json's reflection over that grid's fields; and a grid of the
// table's rows in a random order marks each cell as Highlights.Marking
// does.
func FuzzGridView(f *testing.F) {
	for i, s := range hostile {
		f.Add(int64(i), uint8(i), s)
	}
	f.Fuzz(func(t *testing.T, seed int64, copies uint8, cell string) {
		rng := rand.New(rand.NewSource(seed))
		src := qrand.Table(rng)
		rows := src.RawRows()
		for range copies % 8 {
			rows = append(rows, qrand.Table(rng).RawRows()...)
		}
		rows[rng.Intn(len(rows))][rng.Intn(len(rows[0]))] = cell
		tab, err := table.New(src.Name(), src.Columns(), rows)
		if err != nil {
			t.Skip(err)
		}
		c, err := dcs.Compile(qrand.Query(rng, tab, 1+rng.Intn(3)), tab)
		if err != nil {
			t.Skip(err)
		}
		doc, h, err := BuildView(nil, c, tab, 0)
		if err != nil {
			t.Skip(err)
		}
		if doc.Table.Cells != nil {
			t.Fatal("BuildView's grid holds its cells")
		}
		held := render.JSONGrid(tab, h, doc.Table.Rows, doc.Table.Sampled)
		want, err := json.MarshalIndent(held, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		type fields render.Grid // the grid's fields, without its MarshalJSON
		reflected, err := json.MarshalIndent(fields(held), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if got := doc.Table.AppendIndent(nil, 0); !bytes.Equal(got, want) || !bytes.Equal(reflected, want) {
			t.Fatalf("%s over %d rows: the view writes\n%s\nJSONGrid through MarshalJSON\n%s\nand through reflection\n%s",
				c.Expr, tab.NumRows(), got, want, reflected)
		}
		checkDocument(t, c.Expr.String(), doc)

		// Rows in any order: each cell is marked as Highlights.Marking
		// marks it, cell by cell.
		shuffled := rng.Perm(tab.NumRows())
		for i, row := range render.JSONGrid(tab, h, shuffled, false).Cells {
			for col, cell := range row {
				want := ""
				if m := h.MarkingAt(shuffled[i], col); m != provenance.None {
					want = m.String()
				}
				if cell.Marking != want || cell.Text != tab.Raw(shuffled[i], col) {
					t.Fatalf("%s: cell (%d, %d) is %+v, want %q marked %q", c.Expr, shuffled[i], col, cell, tab.Raw(shuffled[i], col), want)
				}
			}
		}
	})
}
