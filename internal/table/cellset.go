package table

import (
	"strings"
)

// CellSet is a set of cell references, the codomain of the provenance
// functions P∗(Q,T) of Definition 4.1, in its one canonical form: a
// row-major sorted, duplicate-free []CellRef. It is the execution's
// transient form: the plan executor produces every witness-cell set in
// it (its Val invariant), so set algebra — intersection, union,
// inclusion, membership — runs as merge walks and binary searches,
// allocating nothing beyond an output slice. A provenance level that
// outlives the execution is a Level, built from a CellSet once.
// DedupCells brings an arbitrary []CellRef into the form.
type CellSet []CellRef

// Contains reports membership by binary search.
func (s CellSet) Contains(c CellRef) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid].Less(c) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == c
}

// SubsetOf reports whether every member of s is in o, in one merge
// walk. The provenance chain PO ⊆ PE ⊆ PC of Definition 4.1 is
// verified with this.
func (s CellSet) SubsetOf(o CellSet) bool {
	j := 0
	for _, c := range s {
		for j < len(o) && o[j].Less(c) {
			j++
		}
		if j == len(o) || o[j] != c {
			return false
		}
	}
	return true
}

// IntersectSortedCells appends the cells common to a and b onto dst
// (usually a scratch slice with len 0) and returns it, sorted and
// duplicate-free.
func IntersectSortedCells(dst []CellRef, a, b CellSet) []CellRef {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i].Less(b[j]):
			i++
		default:
			j++
		}
	}
	return dst
}

// MergeSortedCells appends the union of a and b onto dst and returns
// it, sorted and duplicate-free.
func MergeSortedCells(dst []CellRef, a, b CellSet) []CellRef {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i].Less(b[j]):
			dst = append(dst, a[i])
			i++
		default:
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// String renders the set as a list, for test failure messages.
func (s CellSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, c := range s {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(c.String())
	}
	b.WriteByte('}')
	return b.String()
}
