package plan

import "math/bits"

// RowSet is a dense word-packed bitmap over the record indices of one
// pinned table — the executor's working representation for a row set it
// builds from unordered rows. Adding n rows is n bit sets, and
// converting back to the executor's ascending []int32 form (AppendRows)
// walks set bits with trailing-zero counts — already in record order,
// so no sort is ever needed.
//
// The executor arena's rowSet sizes one to the snapshot's row count and
// recycles the word buffer across executions.
type RowSet struct {
	words []uint64
}

// rowSetWords is the backing-array length for an n-row universe.
func rowSetWords(n int) int { return (n + 63) / 64 }

// Add inserts row i, which must lie inside the universe the set was
// sized to.
func (s RowSet) Add(i int32) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// AddRows inserts every row of the slice — the []int32 -> RowSet
// conversion. The input need not be sorted or duplicate-free.
func (s RowSet) AddRows(rows []int32) {
	for _, r := range rows {
		s.Add(r)
	}
}

// Contains reports membership of row i.
func (s RowSet) Contains(i int32) bool {
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of set rows.
func (s RowSet) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// AppendRows appends the set rows onto dst in ascending order and
// returns it — the RowSet -> []int32 conversion at operator boundaries.
// A dst with room for Count more rows is never grown.
func (s RowSet) AppendRows(dst []int32) []int32 {
	for wi, w := range s.words {
		base := int32(wi << 6)
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// Or inserts rows, which are ascending, first growing the set to hold
// the last of them: a set built without knowing its universe.
func (s *RowSet) Or(rows []int32) {
	if len(rows) == 0 {
		return
	}
	if n := rowSetWords(int(rows[len(rows)-1]) + 1); n > len(s.words) {
		s.words = append(s.words, make([]uint64, n-len(s.words))...)
	}
	s.AddRows(rows)
}

// Reset empties a set Or built, keeping its memory for the next.
func (s *RowSet) Reset() { s.words = s.words[:0] }
