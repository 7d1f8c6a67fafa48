package minisql

import (
	"testing"
)

// TestLimitResultsSurvivePooledReuse holds a truncated result still: a
// LIMIT result a caller keeps must stay byte-identical while later
// queries run over the same table. (The name is from when Exec ran on
// the plan core's pooled scratch.)
func TestLimitResultsSurvivePooledReuse(t *testing.T) {
	tab := olympics(t)
	q, err := Parse("SELECT City, Year FROM T ORDER BY Year DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	held, err := Exec(q, tab)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct{ text string }
	var want []cell
	for _, row := range held.Data {
		for _, v := range row {
			want = append(want, cell{v.String()})
		}
	}
	wantSrc := append([]int(nil), held.Src...)

	// Run bigger results over the same table.
	for i := 0; i < 50; i++ {
		for _, src := range []string{
			"SELECT * FROM T",
			"SELECT City FROM T WHERE Year > 1800",
			"SELECT Country, COUNT(*) FROM T GROUP BY Country",
		} {
			cq, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Exec(cq, tab); err != nil {
				t.Fatal(err)
			}
		}
	}

	i := 0
	for r, row := range held.Data {
		for c, v := range row {
			if v.String() != want[i].text {
				t.Fatalf("held.Data[%d][%d] = %q, want %q: pooled buffer leaked into a LIMIT result", r, c, v, want[i].text)
			}
			i++
		}
	}
	for r, s := range held.Src {
		if s != wantSrc[r] {
			t.Fatalf("held.Src = %v, want %v", held.Src, wantSrc)
		}
	}
}
