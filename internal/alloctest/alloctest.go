// Package alloctest measures what a function allocates, the one way
// every allocation gate reads it. Only tests import it: `make vet`
// fails if a command, an example or the library links it.
//
// A reading taken right after a collection is not the program's own: a
// collection moves sync.Pool contents to their victim caches and
// empties per-P caches, and the first call after it allocates afresh
// what the pools and caches held (an arena from a pool, a goroutine or
// a sudog from a P's free list). So each reading here starts with a
// collection, then one call that is not counted, and only then counts.
package alloctest

import (
	"math"
	"runtime"
	"testing"
)

// Least takes k readings of f and returns the fewest allocations and
// bytes per call of f that any reading saw (each counted on its own).
// A reading is runtime.GC(), one untimed call of f, and then n calls of
// f between two runtime.ReadMemStats. Every reading is logged under
// label.
func Least(t testing.TB, label string, k, n int, f func()) (allocs, bytes float64) {
	t.Helper()
	allocs, bytes = math.Inf(1), math.Inf(1)
	for i := range k {
		runtime.GC()
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			f()
		}
		runtime.ReadMemStats(&after)
		a := float64(after.Mallocs-before.Mallocs) / float64(n)
		b := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		t.Logf("%s: reading %d of %d: %.2f allocations, %.0f bytes per call", label, i+1, k, a, b)
		allocs, bytes = min(allocs, a), min(bytes, b)
	}
	return allocs, bytes
}
