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
// never mutated.
//
// That immutability is what makes the morsel-parallel executor safe:
// worker goroutines read disjoint [lo,hi) windows of these vectors with
// no synchronization at all. The only lazily built structure a parallel
// scan can touch is the sorted numeric index, whose publication is a
// CAS on atomicIndex below — concurrent builders may do duplicate work
// but always observe either nil or a fully built, immutable index,
// never a partial one.
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
	// kinds is the Kind of each dictionary entry: a cell's is
	// kinds[codes[r]].
	kinds []uint8

	// keys holds the canonical key (Value.Key) of each group of the KB
	// view, groups the group of each record — its key code — and keyIx
	// finds a group by its key. Groups are numbered in order of first
	// appearance, like dictionary entries, so where no key has a
	// second spelling groups is codes, the same slice; and where every
	// spelling moreover is its own key ("1896", "athens"), keys and
	// keyIx are dict and dictIx (ownKeys is false).
	keys    Dictionary
	groups  []uint32
	keyIx   textIndex
	ownKeys bool
	// entryGroup is the group of each dictionary entry; nil while
	// entry i is group i.
	entryGroup []uint32

	kb postings
	// allNum reports that every cell of the column is numeric (numbers
	// or dates), so ordering by nums agrees with Value.Compare and the
	// sorted index can answer superlatives.
	allNum bool
	// hasNaN reports a NaN numeric cell. Value.Compare treats NaN as
	// equal to everything, which no sort order can represent, so index
	// fast paths are disabled for such columns.
	hasNaN bool
}

// group looks a canonical key up among the column's groups.
func group[T string | []byte](cd *columnData, key T) (uint32, bool) {
	return findText(&cd.keyIx, cd.keys.text, cd.keys.ends, key, hashText(key))
}

// postings is the KB view of one column (Section 3.1): the binary
// relation from a cell value's canonical key to the records holding
// it, stored flat, group after group.
type postings struct {
	rows    []int32  // record ids, group after group, ascending inside a group
	offsets []uint32 // group g is rows[offsets[g]:offsets[g+1]]
}

// groupRows returns the records of group g, capped so that appending
// to the window cannot reach the next group.
func (p *postings) groupRows(g int) []int32 {
	lo, hi := p.offsets[g], p.offsets[g+1]
	return p.rows[lo:hi:hi]
}

// groupPostings lays records out by group: a counting sort over their
// group codes, which keeps record order inside each group. offsets[g]
// first counts group g, then marks where it ends, and is the cursor
// the records fill it from, last first, until it marks where it
// starts.
func groupPostings(groups []uint32, ngroups int) postings {
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
	return postings{rows: rows, offsets: offsets}
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
func (t *Table) NumKeys(c int) int { return t.cols[c].keys.Len() }

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
	return Kind(cd.kinds[cd.codes[row]])
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
	if idx := t.numIdx[c].Load(); idx != nil {
		return idx.rows
	}
	cd := &t.cols[c]
	nums := cd.nums
	rows := make([]int32, 0, len(nums))
	for r, f := range nums {
		// A NaN is a text cell, unless the column spells one.
		if f == f || cd.hasNaN && Kind(cd.kinds[cd.codes[r]]) != String {
			rows = append(rows, int32(r))
		}
	}
	rows = radixSortRows(rows, nums)
	if t.numIdx[c].CompareAndSwap(nil, &numericIndex{rows: rows}) {
		derivedBuilds.Add(1)
		return rows
	}
	if idx := t.numIdx[c].Load(); idx != nil {
		return idx.rows
	}
	return rows
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

// NumericIndexBuilt reports whether column c currently has a published
// sorted numeric index, without building one. The plan executor uses
// it to choose between the index superlative path (when the index
// already exists) and the cheaper zone-map path (when building the
// index would cost a full sort).
func (t *Table) NumericIndexBuilt(c int) bool { return t.numIdx[c].Load() != nil }
