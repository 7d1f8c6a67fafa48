package plan

import (
	"testing"

	"nlexplain/internal/table"
)

// TestDetachedResultsAreIndependent scribbles all over a returned Val
// and re-executes: pooled arena reuse must never let a caller-held
// result observe (or corrupt) a later execution.
func TestDetachedResultsAreIndependent(t *testing.T) {
	tab := testTable(t)
	n := &Union{
		L: &IndexLookup{Col: 1, Keys: []table.Value{lit("Greece")}},
		R: &IndexLookup{Col: 1, Keys: []table.Value{lit("China")}},
	}
	var first, second Val
	err := RunInto(&first, n, tab, Capture{})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := append([]int(nil), first.Rows...)
	wantCells := append([]table.CellRef(nil), first.Cells...)
	for i := range first.Rows {
		first.Rows[i] = -7
	}
	for i := range first.Cells {
		first.Cells[i] = table.CellRef{Row: -7, Col: -7}
	}
	err = RunInto(&second, n, tab, Capture{})
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Rows) != len(wantRows) {
		t.Fatalf("rows = %v, want %v", second.Rows, wantRows)
	}
	for i := range wantRows {
		if second.Rows[i] != wantRows[i] {
			t.Fatalf("rows = %v, want %v (pooled buffer leaked into a result)", second.Rows, wantRows)
		}
	}
	for i := range wantCells {
		if second.Cells[i] != wantCells[i] {
			t.Fatalf("cells = %v, want %v", second.Cells, wantCells)
		}
	}
}

// TestLimitDataDoesNotShareWiderBacking pins the Limit copy fix: a
// truncated SQL result's Data and Src must have exact-capacity backing
// arrays, never a [:N] view of the wider input (which, with pooled
// executor scratch, would let reused buffers leak rows into cached
// results).
func TestLimitDataDoesNotShareWiderBacking(t *testing.T) {
	tab := testTable(t)
	n := &Limit{
		N: 2,
		Input: &SQLProject{
			Input: &Scan{},
			Items: []ProjItem{{Label: "City", Col: 2}, {Label: "Year", Col: 0}},
		},
	}
	var v Val
	err := RunInto(&v, n, tab, Noop{})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Data) != 2 || len(v.Src) != 2 {
		t.Fatalf("Data/Src = %d/%d rows, want 2/2", len(v.Data), len(v.Src))
	}
	if cap(v.Data) != len(v.Data) {
		t.Errorf("Data cap = %d, want %d (aliases a wider array)", cap(v.Data), len(v.Data))
	}
	if cap(v.Src) != len(v.Src) {
		t.Errorf("Src cap = %d, want %d (aliases a wider array)", cap(v.Src), len(v.Src))
	}
	for i, row := range v.Data {
		if cap(row) != len(row) {
			t.Errorf("Data[%d] cap = %d, want %d", i, cap(row), len(row))
		}
	}
}

// TestArenaDedupAgainstMap drives the open-addressing dedup scratch
// against a map reference across sizes that force table regrowth.
func TestArenaDedupAgainstMap(t *testing.T) {
	var d dedup
	for _, n := range []int{0, 1, 7, 64, 300} {
		d.init(n)
		ref := map[uint64]int32{}
		for i := 0; i < n; i++ {
			h := uint64(i%13) * 0x9e3779b97f4a7c15 // force collisions
			var cand int32
			eq := func(p int32) bool { return p == cand }
			cand = ref[h]
			got, found := d.lookup(h, eq)
			_, wantFound := ref[h]
			if found != wantFound || (found && got != ref[h]) {
				t.Fatalf("n=%d i=%d lookup = %d,%t want %d,%t", n, i, got, found, ref[h], wantFound)
			}
			if !found {
				d.insert(h, int32(i))
				ref[h] = int32(i)
			}
		}
	}
}
