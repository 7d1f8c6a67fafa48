package alloctest

import (
	"sync"
	"testing"
)

var sink []byte

// TestLeastCountsTheCall: a call that allocates one 64-byte slice reads
// as one allocation of 64 bytes, and one that takes its buffer from a
// pool, which the collection before each reading empties, as none.
func TestLeastCountsTheCall(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector")
	}
	if a, b := Least(t, "make", 3, 10, func() { sink = make([]byte, 64) }); a != 1 || b != 64 {
		t.Errorf("a 64-byte make reads %v allocations, %v bytes; want 1, 64", a, b)
	}
	pool := sync.Pool{New: func() any { return new([256]byte) }}
	pooled := func() {
		p := pool.Get().(*[256]byte)
		sink = p[:]
		pool.Put(p)
	}
	if a, b := Least(t, "pooled", 3, 10, pooled); a != 0 || b != 0 {
		t.Errorf("a pooled buffer reads %v allocations, %v bytes; want 0, 0", a, b)
	}
}
