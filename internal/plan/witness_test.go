package plan

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"testing"

	"nlexplain/internal/table"
)

// TestCombineMatchesCellLists holds the executor's column-by-column
// witness union and intersection to their definition on cell lists:
// the cells of either witness, and the cells of both (Table 10's
// PO(r1 ⊓ r2) = PO(r1) ∩ PO(r2)). Each result must also keep the form
// Tracer.Operator promises: spans ascending by column, none empty, rows
// ascending and distinct.
func TestCombineMatchesCellLists(t *testing.T) {
	const rows = 70 // past one bitmap word
	every := make([]int32, rows)
	for r := range every {
		every[r] = int32(r)
	}
	type w = []table.Span
	cases := []struct {
		name string
		a, b w
	}{
		{"equal columns", w{{Col: 1, Rows: []int32{0, 2, 4}}}, w{{Col: 1, Rows: []int32{0, 2, 4}}}},
		{"equal column, other rows", w{{Col: 1, Rows: []int32{0, 2, 64}}}, w{{Col: 1, Rows: []int32{1, 2, 69}}}},
		{"disjoint columns", w{{Col: 0, Rows: []int32{1, 2}}}, w{{Col: 3, Rows: []int32{1, 2}}}},
		{"partly overlapping columns",
			w{{Col: 0, Rows: []int32{0, 1}}, {Col: 2, Rows: []int32{1, 3}}},
			w{{Col: 2, Rows: []int32{3, 4}}, {Col: 4, Rows: []int32{0}}}},
		{"overlapping columns, no common row",
			w{{Col: 2, Rows: []int32{1, 3}}, {Col: 4, Rows: []int32{5}}},
			w{{Col: 2, Rows: []int32{2}}, {Col: 4, Rows: []int32{5}}}},
		{"empty side", w{{Col: 1, Rows: []int32{2}}, {Col: 3, Rows: []int32{0, 9}}}, nil},
		{"both empty", nil, nil},
		{"a side covering every row",
			w{{Col: 1, Rows: every}},
			w{{Col: 1, Rows: []int32{1, 5, 69}}, {Col: 2, Rows: []int32{0}}}},
		{"both covering every row", w{{Col: 0, Rows: every}, {Col: 5, Rows: every}}, w{{Col: 5, Rows: every}}},
		{"three or more columns",
			w{{Col: 0, Rows: []int32{3}}, {Col: 1, Rows: []int32{0, 1, 2}}, {Col: 2, Rows: []int32{7}}, {Col: 3, Rows: []int32{4, 8}}},
			w{{Col: 1, Rows: []int32{1, 2, 3}}, {Col: 3, Rows: []int32{8, 66}}, {Col: 5, Rows: []int32{0}}}},
	}
	header := make([]string, 6)
	for c := range header {
		header[c] = "c" + strconv.Itoa(c)
	}
	records := make([][]string, rows)
	for r := range records {
		records[r] = make([]string, len(header))
	}
	tab := table.MustNew("grid", header, records)

	ar := getArena()
	defer ar.release()
	ex := &ar.ex
	ex.t, ex.ar = tab, ar
	for _, tc := range cases {
		for _, order := range [2][2]w{{tc.a, tc.b}, {tc.b, tc.a}} {
			a, b := order[0], order[1]
			ca, cb := cellsOf(a), cellsOf(b)
			var inBoth []table.CellRef
			for _, c := range ca {
				if slices.Contains(cb, c) {
					inBoth = append(inBoth, c)
				}
			}
			for _, both := range []bool{false, true} {
				want := inBoth
				if !both {
					want = sortedCells(append(slices.Clone(ca), cb...))
				}
				got := ex.combine(a, b, both)
				what := fmt.Sprintf("%s (both=%v): combine(%v, %v) = %v", tc.name, both, a, b, got)
				if err := spanForm(got); err != nil {
					t.Errorf("%s: %v", what, err)
				}
				if g := cellsOf(got); !slices.Equal(g, want) {
					t.Errorf("%s: cells %v, want %v", what, g, want)
				}
			}
		}
	}
}

// cellsOf lists a witness's cells row-major, each once.
func cellsOf(spans []table.Span) []table.CellRef {
	var cells []table.CellRef
	for _, sp := range spans {
		for _, r := range sp.Rows {
			cells = append(cells, table.CellRef{Row: int(r), Col: sp.Col})
		}
	}
	return sortedCells(cells)
}

// sortedCells sorts cells row-major and drops the repeats.
func sortedCells(cells []table.CellRef) []table.CellRef {
	slices.SortFunc(cells, func(a, b table.CellRef) int { return cmp.Or(a.Row-b.Row, a.Col-b.Col) })
	return slices.Compact(cells)
}

// spanForm reports how spans break the form Tracer.Operator promises.
func spanForm(spans []table.Span) error {
	for i, sp := range spans {
		switch {
		case len(sp.Rows) == 0:
			return fmt.Errorf("column %d has no rows", sp.Col)
		case i > 0 && spans[i-1].Col >= sp.Col:
			return fmt.Errorf("column %d follows column %d", sp.Col, spans[i-1].Col)
		}
		for j := 1; j < len(sp.Rows); j++ {
			if sp.Rows[j-1] >= sp.Rows[j] {
				return fmt.Errorf("column %d lists row %d before row %d", sp.Col, sp.Rows[j-1], sp.Rows[j])
			}
		}
	}
	return nil
}
