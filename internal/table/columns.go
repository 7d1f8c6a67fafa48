package table

import (
	"math"
	"sync/atomic"
)

// columnData is the storage of one column. A cell is a code into the
// column's dictionary of distinct spellings; its kind is its entry's,
// its number sits in a flat vector, and its canonical key is the key of
// its entry's group. Executors scan the vectors and the key codes
// directly. Everything here is built once, by a columnBuilder, and
// never mutated; the KB postings of Section 3.1 are not part of it but
// derived from the key codes on a column's first lookup (postings on
// Table).
//
// That immutability is what makes the morsel-parallel executor safe:
// worker goroutines read disjoint [lo,hi) windows of these vectors with
// no synchronization at all. The lazily built structures a scan or a
// lookup can touch — the postings, the sorted numeric index and the
// zone map — are published by a CAS: concurrent builders may do
// duplicate work but always observe either nil or a fully built,
// immutable structure, never a partial one.
type columnData struct {
	// nums is Value.Float of each record, NaN for a cell with no numeric
	// reading; nil while no cell of the column has one. A NaN is a text
	// cell unless hasNaN says a cell spells one.
	nums []float64

	// dict holds the distinct spellings of the column's cells in order
	// of first appearance, codes the entry each record is spelled as,
	// dictIx finds an entry by its text.
	dict   Dictionary
	codes  []uint32
	dictIx textIndex
	// kinds is the Kind of each dictionary entry, with otherKey set on
	// an entry that is not its own canonical key ("Athens", "NaN"): a
	// cell's kind is kindOf(codes[r]).
	kinds []uint8

	// groups is the group of each record — its key code — among the
	// groups of the KB view, nkeys of them, numbered in order of first
	// appearance like dictionary entries, so where no key has a second
	// spelling groups is codes, the same slice. entryGroup is the group
	// of each dictionary entry; nil while entry i is group i.
	groups     []uint32
	entryGroup []uint32
	nkeys      int
	// A key is held once, where it differs from its spelling: a group
	// is found by its key as the spelling of an entry that is its own
	// key ("1896", "athens"), and otherwise in exc, the keys no such
	// entry spells ("athens" of "Athens", "nan" of "NaN"), excIx finding
	// them and excGroup naming the group of each. A column whose every
	// spelling is its own key holds no exception.
	exc      Dictionary
	excIx    textIndex
	excGroup []uint32

	// allNum reports that every cell of the column is numeric (numbers
	// or dates), so ordering by nums agrees with Value.Compare and the
	// sorted index can answer superlatives.
	allNum bool
	// hasNaN reports a NaN numeric cell. Value.Compare treats NaN as
	// equal to everything, which no sort order can represent, so index
	// fast paths are disabled for such columns.
	hasNaN bool
}

// otherKey marks the kind byte of a dictionary entry whose canonical
// key differs from its spelling.
const otherKey = 0x80

// kindOf returns the kind of dictionary entry e.
func (cd *columnData) kindOf(e uint32) Kind { return Kind(cd.kinds[e] &^ otherKey) }

// findGroup looks key, whose hash is h, up among the groups of a
// column whose dictionary and exceptions hold their text in text and
// excText: first as the spelling of an entry that is its own key, then
// among the exceptions.
func findGroup[A, T string | []byte](cd *columnData, text, excText A, key T, h uint64) (uint32, bool) {
	if e, ok := findText(&cd.dictIx, text, cd.dict.ends, key, h); ok && cd.kinds[e]&otherKey == 0 {
		if cd.entryGroup == nil {
			return e, true
		}
		return cd.entryGroup[e], true
	}
	if x, ok := findText(&cd.excIx, excText, cd.exc.ends, key, h); ok {
		return cd.excGroup[x], true
	}
	return 0, false
}

// postings is the KB view of one column (Section 3.1): the binary
// relation from a cell value's canonical key to the records holding
// it, stored flat, group after group. It is derived from the key codes
// on the column's first lookup, published like the sorted numeric
// index, and dropped with it.
type postings struct {
	rows    []int32  // record ids, group after group, ascending inside a group
	offsets []uint32 // group g is rows[offsets[g]:offsets[g+1]]
}

// atomicPostings is the publication slot of one column's postings.
type atomicPostings = atomic.Pointer[postings]

// groupRows returns the records of group g, capped so that appending
// to the window cannot reach the next group.
func (p *postings) groupRows(g int) []int32 {
	lo, hi := p.offsets[g], p.offsets[g+1]
	return p.rows[lo:hi:hi]
}

// bytes is what the postings keep.
func (p *postings) bytes() int64 {
	return 4*int64(cap(p.rows)) + 4*int64(cap(p.offsets)) + 2*sliceHeaderBytes
}

// groupPostings lays records out by group: a counting sort over their
// group codes, which keeps record order inside each group. offsets[g]
// first counts group g, then marks where it ends, and is the cursor
// the records fill it from, last first, until it marks where it
// starts.
func groupPostings(groups []uint32, ngroups int) *postings {
	offsets := make([]uint32, ngroups+1)
	for _, g := range groups {
		offsets[g]++
	}
	for g := 1; g < ngroups; g++ {
		offsets[g] += offsets[g-1]
	}
	offsets[ngroups] = uint32(len(groups))
	rows := make([]int32, len(groups))
	for r := len(groups) - 1; r >= 0; r-- {
		g := groups[r]
		offsets[g]--
		rows[offsets[g]] = int32(r)
	}
	return &postings{rows: rows, offsets: offsets}
}

// postings returns the postings of column c, built on first use.
func (t *Table) postings(c int) *postings {
	p, _ := derive(&t.kb[c], func() *postings {
		cd := &t.cols[c]
		return groupPostings(cd.groups, cd.nkeys)
	})
	return p
}

// derive returns the structure published in slot, building and
// publishing one when there is none, and reports whether it published
// it. Concurrent first uses may build duplicate (identical)
// structures, but only the published one is charged to the table's
// derived-byte account.
func derive[T any](slot *atomic.Pointer[T], build func() *T) (*T, bool) {
	if p := slot.Load(); p != nil {
		return p, false
	}
	p := build()
	if slot.CompareAndSwap(nil, p) {
		derivedBuilds.Add(1)
		return p, true
	}
	if q := slot.Load(); q != nil {
		return q, false
	}
	return p, false
}

// numericIndex is the lazily built sorted index of one column: the
// records with a numeric interpretation, ordered ascending by that
// interpretation (ties by record index), radix-sorted with one row
// vector of scratch (radixSortRows). It is immutable once published.
type numericIndex struct {
	rows []int32
}

// atomicIndex is the publication slot of one column's numeric index.
// Build and drop race safely through Load/CompareAndSwap/Swap:
// concurrent first uses may build duplicate (identical) indexes, but
// only the published one is ever accounted, so byte accounting stays
// consistent with what is resident.
type atomicIndex = atomic.Pointer[numericIndex]

// ColumnKeyCodes returns the key code of every cell in column c, in
// record order: the number of its canonical key (Value.Key) among the
// column's distinct keys in order of first appearance, below
// NumKeys(c). Two cells share a code exactly when they share a key, so
// the executor groups codes where it would group keys.
// The slice is shared with the table and must not be modified.
func (t *Table) ColumnKeyCodes(c int) []uint32 { return t.cols[c].groups }

// NumKeys returns the number of distinct canonical keys in column c.
func (t *Table) NumKeys(c int) int { return t.cols[c].nkeys }

// ColumnDictionary returns the dictionary of column c — the distinct
// spellings of its cells in order of first appearance — and the
// dictionary code of every record: the column exactly as a segment
// stores it. The slice is shared with the table and must not be
// modified.
func (t *Table) ColumnDictionary(c int) (Dictionary, []uint32) {
	return t.cols[c].dict, t.cols[c].codes
}

// ColumnNums returns the numeric interpretation (Value.Float) of every
// cell in column c in record order, NaN for a cell with none — nil
// when no cell of the column has one. A NaN is a cell spelled "nan"
// only where ColumnIndexable(c) is false; CellKind tells the two
// apart. The slice is shared with the table and must not be modified.
func (t *Table) ColumnNums(c int) []float64 { return t.cols[c].nums }

// CellKind returns the kind of the cell at (row, col): its dictionary
// entry's.
func (t *Table) CellKind(row, col int) Kind {
	cd := &t.cols[col]
	return cd.kindOf(cd.codes[row])
}

// ColumnAllNumeric reports whether every cell of column c is numeric
// (numbers or dates), which makes ordering by ColumnNums equivalent to
// Value.Compare over the column.
func (t *Table) ColumnAllNumeric(c int) bool { return t.cols[c].allNum }

// ColumnIndexable reports whether the lazily built sorted numeric
// index of column c answers range scans faithfully: it is false when a
// cell holds NaN, whose Value.Compare behaviour (equal to everything)
// no total order can represent.
func (t *Table) ColumnIndexable(c int) bool { return !t.cols[c].hasNaN }

func isASCII[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// NumericSortedRows returns the records of column c that carry a
// numeric interpretation, ordered ascending by that interpretation
// (ties by record index; -0 ties with +0, and a cell spelling NaN
// sorts after every number, where no caller that checks
// ColumnIndexable looks). The index is built lazily on first use,
// published atomically, and may be dropped again under memory pressure
// (DropDerivedIndexes) — concurrent builders may duplicate the work
// but produce identical results, and only the published build is
// charged to the table's derived-byte account. The returned slice is
// shared and must not be modified.
func (t *Table) NumericSortedRows(c int) []int32 {
	idx, _ := derive(&t.numIdx[c], func() *numericIndex {
		cd := &t.cols[c]
		nums := cd.nums
		rows := make([]int32, 0, len(nums))
		for r, f := range nums {
			// A NaN is a text cell, unless the column spells one.
			if f == f || cd.hasNaN && cd.kindOf(cd.codes[r]) != String {
				rows = append(rows, int32(r))
			}
		}
		return &numericIndex{rows: radixSortRows(rows, nums)}
	})
	return idx.rows
}

// sortKey maps a number to a key whose unsigned order is the number's:
// the sign bit set on a non-negative number, every bit flipped on a
// negative one. -0 folds to +0, and NaN takes the largest key.
func sortKey(f float64) uint64 {
	if f != f {
		return math.MaxUint64
	}
	k := math.Float64bits(f + 0) // -0 + 0 is +0
	return k ^ (uint64(int64(k)>>63) | 1<<63)
}

// radixShifts are where the radixBits-wide digits of a sort key
// start, lowest first, aligned to the top of the key so that the
// exponent and leading mantissa bits of a column of integers fall in
// few digits. The lowest digit takes bits 0-10 and shares two with the
// next, which sorts on them again to the same effect.
var radixShifts = [...]uint{0, 9, 20, 31, 42, 53}

const (
	radixBits = 11
	radixMask = 1<<radixBits - 1
)

// radixSortRows orders rows, given in record order, by sortKey of
// their numbers: a least-significant-digit radix sort, one digit of
// the key a pass. Rows already in order are returned as they
// are. Otherwise one pass over the rows counts every digit, and a
// digit that is the same in every key needs no pass. Each pass is
// stable, so ties keep record order. The keys are recomputed from nums
// on every pass, so the one scratch is a second row vector; the result
// is whichever of the two the last pass filled.
func radixSortRows(rows []int32, nums []float64) []int32 {
	ordered := true
	var prev uint64
	for _, r := range rows {
		k := sortKey(nums[r])
		if k < prev {
			ordered = false
			break
		}
		prev = k
	}
	if ordered {
		return rows
	}
	var counts [len(radixShifts)][1 << radixBits]int32
	for _, r := range rows {
		k := sortKey(nums[r])
		for d, shift := range radixShifts {
			counts[d][k>>shift&radixMask]++
		}
	}
	first := sortKey(nums[rows[0]])
	var scratch []int32
	for d, shift := range radixShifts {
		cnt := &counts[d]
		if cnt[first>>shift&radixMask] == int32(len(rows)) {
			continue
		}
		if scratch == nil {
			scratch = make([]int32, len(rows))
		}
		var at int32
		for i, n := range cnt {
			cnt[i] = at
			at += n
		}
		for _, r := range rows {
			digit := sortKey(nums[r]) >> shift & radixMask
			scratch[cnt[digit]] = r
			cnt[digit]++
		}
		rows, scratch = scratch, rows
	}
	return rows
}
