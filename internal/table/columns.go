package table

import (
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// columnData is the typed storage of one column: the kind, numeric
// reading and canonical key of every cell as flat vectors, and the KB
// index over the keys. Together with the cell's raw text these vectors
// are the cell — Table.Value reads them back — and executors scan them
// directly. They are built once, in New or Append, and never mutated.
//
// That immutability is what makes the morsel-parallel executor safe:
// worker goroutines read disjoint [lo,hi) windows of these vectors with
// no synchronization at all. The only lazily built structure a parallel
// scan can touch is the sorted numeric index, whose publication is a
// CAS on atomicIndex below — concurrent builders may do duplicate work
// but always observe either nil or a fully built, immutable index,
// never a partial one.
type columnData struct {
	kinds []uint8   // Kind per record
	keys  []string  // Value.Key() per record; equal keys share one string
	nums  []float64 // Value.Float() per record (0 when !isNum[r])
	isNum []bool    // whether the cell has a numeric interpretation
	kb    postings
	// allNum reports that every cell of the column is numeric (numbers
	// or dates), so ordering by nums agrees with Value.Compare and the
	// sorted index can answer superlatives.
	allNum bool
	// hasNaN reports a NaN numeric cell. Value.Compare treats NaN as
	// equal to everything, which no sort order can represent, so index
	// fast paths are disabled for such columns.
	hasNaN bool
	// asciiKeys reports that every canonical key of the column is pure
	// ASCII. Key identity (strings.ToLower) and Value.Equal
	// (strings.EqualFold) agree exactly on ASCII; outside it, Unicode
	// simple folds ('ſ' vs 'S') make them diverge, so equality fast
	// paths require this flag.
	asciiKeys bool
}

// postings is the KB view of one column (Section 3.1): the binary
// relation from a cell value's canonical key to the records holding
// it, stored flat. Records with one key form a group; groups are
// numbered in order of first appearance, so walking them visits the
// column's distinct values in table order.
type postings struct {
	rows    []int             // record ids, group after group, ascending inside a group
	offsets []uint32          // group g is rows[offsets[g]:offsets[g+1]]; 2^32 rows of cells do not fit in memory
	group   map[string]uint32 // canonical key -> group
}

func (p *postings) numGroups() int { return len(p.offsets) - 1 }

// groupRows returns the records of group g, capped so that appending
// to the window cannot reach the next group.
func (p *postings) groupRows(g int) []int {
	lo, hi := p.offsets[g], p.offsets[g+1]
	return p.rows[lo:hi:hi]
}

// kbBuilder groups the records of one column by canonical key as the
// keys arrive in record order. The per-record and per-group scratch is
// reused from column to column.
type kbBuilder struct {
	group map[string]uint32
	first []uint32 // first record of each group
	size  []uint32 // records in each group
	gids  []uint32 // group of each record
}

// start readies the builder for a column of n records expected to form
// about groups groups.
func (b *kbBuilder) start(n, groups int) {
	b.group = make(map[string]uint32, groups)
	b.first, b.size = b.first[:0], b.size[:0]
	if cap(b.gids) < n {
		b.gids = make([]uint32, n)
	}
	b.gids = b.gids[:n]
}

// open starts a new group under key with record r, which the caller
// then puts into it.
func (b *kbBuilder) open(r int, key string) uint32 {
	g := uint32(len(b.first))
	b.group[key] = g
	b.first = append(b.first, uint32(r))
	b.size = append(b.size, 0)
	return g
}

// put adds record r, the next in order, to group g.
func (b *kbBuilder) put(r int, g uint32) {
	b.size[g]++
	b.gids[r] = g
}

// finish lays the groups out as postings: a counting sort of the
// records by group, which keeps record order inside each group.
func (b *kbBuilder) finish() postings {
	offsets := make([]uint32, len(b.size)+1)
	for g, n := range b.size {
		offsets[g+1] = offsets[g] + n
	}
	rows := make([]int, len(b.gids))
	next := b.size // each group's write cursor; the sizes are spent
	copy(next, offsets)
	for r, g := range b.gids {
		rows[next[g]] = r
		next[g]++
	}
	return postings{rows: rows, offsets: offsets, group: b.group}
}

// numericIndex is the lazily built sorted index of one column: the
// records with a numeric interpretation, ordered ascending by that
// interpretation (ties by record index). It is immutable once
// published.
type numericIndex struct {
	rows []int
}

// atomicIndex is the publication slot of one column's numeric index.
// Build and drop race safely through Load/CompareAndSwap/Swap:
// concurrent first uses may build duplicate (identical) indexes, but
// only the published one is ever accounted, so byte accounting stays
// consistent with what is resident.
type atomicIndex = atomic.Pointer[numericIndex]

// buildColumns builds the typed vectors and KB index of every column
// over t.raw and seals the byte account. With a parent (Append) the
// leading records are the parent's: their vectors are copied and their
// keys regrouped, and only the cells beyond them are parsed.
//
// Strings are shared as the cells are grouped: every record of a group
// carries the key string of the group's first record, that key string
// is the cell's own text when the text already is canonical ("1896",
// "athens"), and a cell spelled like the first of its group drops its
// own string for that one.
func (t *Table) buildColumns(parent *Table) {
	n, n0 := len(t.raw), 0
	if parent != nil {
		n0 = len(parent.raw)
		t.mem.text, t.mem.dict = parent.mem.text, parent.mem.dict
	}
	t.cols = make([]columnData, len(t.columns))
	t.numIdx = make([]atomicIndex, len(t.columns))
	t.zones = make([]atomicZones, len(t.columns))
	var b kbBuilder
	var buf []byte
	for c := range t.columns {
		cd := &t.cols[c]
		cd.kinds = make([]uint8, n)
		cd.keys = make([]string, n)
		cd.nums = make([]float64, n)
		cd.isNum = make([]bool, n)
		cd.allNum = n > 0
		cd.asciiKeys = true
		if n0 > 0 {
			pd := &parent.cols[c]
			copy(cd.kinds, pd.kinds)
			copy(cd.keys, pd.keys)
			copy(cd.nums, pd.nums)
			copy(cd.isNum, pd.isNum)
			cd.allNum, cd.hasNaN, cd.asciiKeys = pd.allNum, pd.hasNaN, pd.asciiKeys
			b.start(n, pd.kb.numGroups())
		} else {
			b.start(n, 0)
		}
		for r, key := range cd.keys[:n0] {
			g, ok := b.group[key]
			if !ok {
				g = b.open(r, key)
			}
			b.put(r, g)
		}
		for r := n0; r < n; r++ {
			cell := t.raw[r][c]
			v := ParseValue(cell)
			cd.set(r, v)
			buf = appendKey(buf[:0], v)
			g, ok := b.group[string(buf)]
			if ok {
				first := b.first[g]
				cd.keys[r] = cd.keys[first]
				if shared := t.raw[first][c]; shared == cell {
					t.raw[r][c] = shared
				} else {
					t.mem.addText(cell)
				}
			} else {
				t.mem.addText(cell)
				if s := strings.TrimSpace(cell); s == string(buf) {
					cd.keys[r] = s
				} else {
					cd.keys[r] = string(buf)
					t.mem.addText(cd.keys[r])
				}
				if !isASCII(cd.keys[r]) {
					cd.asciiKeys = false
				}
				g = b.open(r, cd.keys[r])
			}
			b.put(r, g)
		}
		cd.kb = b.finish()
	}
	t.sealBaseBytes()
}

// set stores the typed reading of record r; its key is the caller's.
func (cd *columnData) set(r int, v Value) {
	cd.kinds[r] = uint8(v.Kind)
	if f, ok := v.Float(); ok {
		cd.nums[r] = f
		cd.isNum[r] = true
		if math.IsNaN(f) {
			cd.hasNaN = true
		}
	} else {
		cd.allNum = false
	}
}

// ColumnKeys returns the canonical keys (Value.Key) of every cell in
// column c, in record order. The slice is shared with the table and
// must not be modified.
func (t *Table) ColumnKeys(c int) []string { return t.cols[c].keys }

// ColumnNums returns the numeric interpretation (Value.Float) of every
// cell in column c in record order, plus a parallel validity vector.
// Both slices are shared with the table and must not be modified.
func (t *Table) ColumnNums(c int) (nums []float64, isNum []bool) {
	return t.cols[c].nums, t.cols[c].isNum
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

// KeyEqualConsistent reports whether canonical-key identity on column
// c is guaranteed to agree with Value.Equal for comparisons against v,
// which is what the KB-index equality fast paths rely on. It is false
// when the column or the literal's key leaves ASCII (ToLower-keys and
// EqualFold diverge on Unicode simple folds) or when the literal is
// NaN (NaN shares its key with itself but is never Equal to itself).
func (t *Table) KeyEqualConsistent(c int, v Value) bool {
	if !t.cols[c].asciiKeys {
		return false
	}
	if f, ok := v.Float(); ok && math.IsNaN(f) {
		return false
	}
	return isASCII(v.Key())
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// NumericSortedRows returns the records of column c that carry a
// numeric interpretation, ordered ascending by that interpretation
// (ties by record index). The index is built lazily on first use,
// published atomically, and may be dropped again under memory pressure
// (DropDerivedIndexes) — concurrent builders may duplicate the work
// but produce identical results, and only the published build is
// charged to the table's derived-byte account. The returned slice is
// shared and must not be modified.
func (t *Table) NumericSortedRows(c int) []int {
	if idx := t.numIdx[c].Load(); idx != nil {
		return idx.rows
	}
	cd := &t.cols[c]
	rows := make([]int, 0, len(cd.isNum))
	for r := range cd.isNum {
		if cd.isNum[r] {
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if cd.nums[a] != cd.nums[b] {
			return cd.nums[a] < cd.nums[b]
		}
		return a < b
	})
	if t.numIdx[c].CompareAndSwap(nil, &numericIndex{rows: rows}) {
		sz := indexBytes(len(rows))
		t.mem.derived.Add(sz)
		t.memNotify(sz)
	} else if idx := t.numIdx[c].Load(); idx != nil {
		return idx.rows
	}
	return rows
}

// NumericIndexBuilt reports whether column c currently has a published
// sorted numeric index, without building one. The plan executor uses
// it to choose between the index superlative path (when the index
// already exists) and the cheaper zone-map path (when building the
// index would cost a full sort).
func (t *Table) NumericIndexBuilt(c int) bool { return t.numIdx[c].Load() != nil }
