package table

import (
	"cmp"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomCells draws a set over a rows x cols grid, row-major, each cell
// kept with probability p.
func randomCells(rng *rand.Rand, rows, cols int, p float64) []CellRef {
	var s []CellRef
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < p {
				s = append(s, CellRef{Row: r, Col: c})
			}
		}
	}
	return s
}

// levelOf holds cells, listed row-major, through NewLevel: each
// column's rows gathered in order into a span, an empty span for a
// column with none, the spans ascending by column.
func levelOf(cells []CellRef, rows, cols int) Level {
	spans := make([]Span, cols)
	for c := range spans {
		spans[c].Col = c
	}
	for _, c := range cells {
		spans[c.Col].Rows = append(spans[c.Col].Rows, int32(c.Row))
	}
	return NewLevel(rows, spans)
}

// checkLevel holds l to the set it must hold: the same cells listed
// row-major, its Len, membership cell by cell (and off the grid), and
// the JSON encoding/json makes of the cells as a []CellRef.
func checkLevel(t *testing.T, what string, l Level, want []CellRef, rows, cols int) {
	t.Helper()
	if got := slices.Collect(l.All()); !slices.Equal(got, want) {
		t.Fatalf("%s: All lists %v, want %v", what, got, want)
	}
	if l.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", what, l.Len(), len(want))
	}
	for r := -1; r <= rows; r++ {
		for c := -1; c <= cols; c++ {
			ref := CellRef{Row: r, Col: c}
			if l.Contains(ref) != slices.Contains(want, ref) {
				t.Fatalf("%s: Contains(%v) = %v", what, ref, l.Contains(ref))
			}
		}
	}
	if l.Contains(CellRef{Row: math.MaxInt32 + 1, Col: 0}) {
		t.Fatalf("%s: holds a row past int32", what)
	}
	got, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(append([]CellRef{}, want...))
	if string(got) != string(wantJSON) {
		t.Fatalf("%s: JSON %s, want %s", what, got, wantJSON)
	}
	var back Level
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if cells := slices.Collect(back.All()); !slices.Equal(cells, want) {
		t.Fatalf("%s: read back as %v, want %v", what, cells, want)
	}
}

// TestLevelHoldsItsSet builds levels from random sets, from empty to
// full, and adds whole columns to them as PC does: each holds exactly
// its cells, and takes one allocation sized exactly.
func TestLevelHoldsItsSet(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 400; i++ {
		rows, cols := rng.Intn(12), 1+rng.Intn(12)
		p := []float64{0, 0.05, 0.3, 0.9, 1}[i%5]
		s := randomCells(rng, rows, cols, p)
		l := levelOf(s, rows, cols)
		checkLevel(t, "NewLevel", l, s, rows, cols)
		if len(l.data) != cap(l.data) {
			t.Fatalf("NewLevel: %d words in room for %d", len(l.data), cap(l.data))
		}

		var named []int
		for c := 0; c < cols; c++ {
			if rng.Intn(3) == 0 {
				named = append(named, c)
			}
		}
		pc := l.WithColumns(named)
		want := slices.Clone(s)
		for _, c := range named {
			for r := 0; r < rows; r++ {
				want = append(want, CellRef{Row: r, Col: c})
			}
		}
		slices.SortFunc(want, func(a, b CellRef) int { return cmp.Or(a.Row-b.Row, a.Col-b.Col) })
		checkLevel(t, "WithColumns", pc, slices.Compact(want), rows, cols)
		if len(pc.data) != cap(pc.data) {
			t.Fatalf("WithColumns: %d words in room for %d", len(pc.data), cap(pc.data))
		}
	}
}

// TestLevelHoldsColumnsWhole: a column that holds every row costs two
// words whatever the table's size, and a level of a few rows costs
// their rows.
func TestLevelHoldsColumnsWhole(t *testing.T) {
	const rows = 131072
	var pe []CellRef
	for r := 0; r < rows; r += 1000 {
		pe = append(pe, CellRef{Row: r, Col: 2}, CellRef{Row: r, Col: 5})
	}
	l := levelOf(pe, rows, 6)
	if want := 2 + 132 + 2 + 132; len(l.data) != want || cap(l.data) != want {
		t.Errorf("two columns of 132 rows: %d words (room for %d), want %d", len(l.data), cap(l.data), want)
	}
	pc := l.WithColumns([]int{2, 4})
	if want := 2 + 2 + 2 + 132; len(pc.data) != want {
		t.Errorf("PC over columns 2 and 4: %d words, want %d", len(pc.data), want)
	}
	if pc.Len() != 2*rows+132 || !pc.Contains(CellRef{Row: rows - 1, Col: 4}) || pc.Contains(CellRef{Row: rows, Col: 4}) {
		t.Errorf("PC over columns 2 and 4: Len %d", pc.Len())
	}
	var full []CellRef
	for r := 0; r < rows; r++ {
		full = append(full, CellRef{Row: r, Col: 1})
	}
	if l := levelOf(full, rows, 2); len(l.data) != 2 || l.Len() != rows {
		t.Errorf("a full column: %d words, Len %d; want 2 words", len(l.data), l.Len())
	}
}
