package export

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"nlexplain/internal/dcs"
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

	cells := []table.CellRef{{Row: 0, Col: 1}, {Row: 2, Col: 0}}
	for i, s := range hostile {
		d := &ExplanationJSON{Name: s, Version: s, Query: s, Utterance: s, SQL: s, Result: s,
			Table: render.Grid{Name: s, Headers: []string{s, "b"}, Rows: []int{0, 7},
				Cells: [][]render.Cell{{{Text: s, Marking: s}, {Text: "x"}}, {}, nil}, Sampled: i%2 == 0},
			Provenance: ProvJSON{Output: cells, Execution: cells[:1], Columns: cells,
				Aggrs: []string{"max", s}, HeaderAggrs: map[string]string{s: "max", s + "z": s, "Year": "min"}},
		}
		checkDocument(t, "hostile "+s, d)
	}
	checkDocument(t, "nil slices", &ExplanationJSON{})
	checkDocument(t, "empty slices", &ExplanationJSON{
		Table:      render.Grid{Headers: []string{}, Rows: []int{}, Cells: [][]render.Cell{}},
		Provenance: ProvJSON{Output: table.CellSet{}, Execution: table.CellSet{}, Columns: table.CellSet{}, Aggrs: []string{}, HeaderAggrs: map[string]string{}},
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
