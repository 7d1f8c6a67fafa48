package plan

import (
	"slices"
	"testing"
)

// TestDetachedResultsAreIndependent scribbles all over a returned Val
// and re-executes: pooled arena reuse must never let a caller-held
// result observe (or corrupt) a later execution.
func TestDetachedResultsAreIndependent(t *testing.T) {
	tab := testTable(t)
	n := &Union{
		L: eq(1, lit("Greece")),
		R: eq(1, lit("China")),
	}
	var first, second Val
	err := RunIntoCtx(nil, nil, &first, n, tab, Capture{})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := append([]int(nil), first.Rows...)
	wantCells := slices.Collect(first.Cells.All())
	for i := range first.Rows {
		first.Rows[i] = -7
	}
	err = RunIntoCtx(nil, nil, &second, n, tab, Capture{})
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
	if cells := slices.Collect(second.Cells.All()); len(cells) == 0 || !slices.Equal(cells, wantCells) {
		t.Fatalf("cells = %v, want %v", cells, wantCells)
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

// TestIdentityIsShared pins the one identity row set: every request
// for 0..n-1 is a window of the same array, capped so that no executor
// can append into it, and a table longer than the array replaces it
// with a longer one, which later requests share in turn.
func TestIdentityIsShared(t *testing.T) {
	n := 3 * morselRows
	rows := identity(n)
	if len(rows) != n || cap(rows) != n {
		t.Fatalf("identity(%d) has len %d, cap %d", n, len(rows), cap(rows))
	}
	for i, r := range rows {
		if int(r) != i {
			t.Fatalf("identity(%d)[%d] = %d", n, i, r)
		}
	}
	if small := identity(5); &small[0] != &rows[0] {
		t.Fatal("identity(5) is not a window of the shared row set")
	}
	longer := identity(len(*identRows.Load()) + 1)
	if again := identity(n); &again[0] != &longer[0] {
		t.Fatal("a longer identity was built but not shared")
	}
}
