package dcs_test

import (
	"math"
	"runtime"
	"strconv"
	"testing"

	. "nlexplain/internal/dcs"
	"nlexplain/internal/plan"
	"nlexplain/internal/table"
)

// TestMostFrequentWholeColumnAllocs bounds what one answer-only
// execution of a most-frequent superlative over every value of a
// column allocates, on 131072 distinct integers: the column's postings
// already hold every group's size, so the answer needs no list of the
// column's values.
func TestMostFrequentWholeColumnAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under -race")
	}
	if testing.Short() {
		t.Skip("131072-row table")
	}
	rows := make([][]string, 131072)
	for i := range rows {
		rows[i] = []string{strconv.Itoa(i)}
	}
	tab := table.MustNew("distinct", []string{"N"}, rows)
	e, err := Parse("argmax(Values[N], R[λx.count(N.x)])")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(e, tab)
	if err != nil {
		t.Fatal(err)
	}
	x := &plan.Exec{Workers: 1}
	var v plan.Val
	run := func() {
		if err := plan.RunIntoCtx(nil, x, &v, c.Root, tab, nil); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if len(v.Values) != 1 || v.Values[0].String() != "0" {
		t.Fatalf("most frequent = %v, want [0]: every value appears once, and ties go to the first", v.Values)
	}
	// The least of a few readings, so that an allocation of the
	// runtime's own during one of them does not count.
	allocs, bytes := math.Inf(1), math.Inf(1)
	for range 5 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		const n = 4
		for range n {
			run()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/n)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/n)
	}
	t.Logf("one execution: %.0f allocations, %.0f bytes", allocs, bytes)
	// 2 allocations and 130 bytes (the result's one value and its
	// detached copy) when pinned, + 10 %; 4 and 7 340 306 while the
	// operator listed every distinct value and looked each one up.
	const maxAllocs, maxBytes = 2, 143
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("one execution allocates %.0f times, %.0f bytes; bound %d, %d", allocs, bytes, maxAllocs, maxBytes)
	}
}
