package table

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// Builder assembles a table cell by cell, for the callers that have
// its cells as a stream rather than as rows: the CSV reader, WAL replay
// and the segment decoder. Cells go to their column in record order —
// a record at a time, a column at a time, or any mix — and Table seals
// the result once every column holds the same number of them. New and
// Append build through the same columns, so a relation is stored the
// same way however it arrived.
//
// Columns are independent: the cells of different columns may be
// added from different goroutines at once, as FillColumns does.
type Builder struct {
	t    *Table
	cols []columnBuilder
}

// NewBuilder starts a table with the given name and header. rows is
// how many records to make room for; zero when unknown.
func NewBuilder(name string, columns []string, rows int) (*Builder, error) {
	t, err := newTable(name, columns)
	if err != nil {
		return nil, err
	}
	return newBuilder(t, rows), nil
}

func newBuilder(t *Table, rows int) *Builder {
	b := &Builder{t: t, cols: make([]columnBuilder, len(t.columns))}
	for c := range b.cols {
		b.cols[c].cd.codes = make([]uint32, 0, rows)
	}
	return b
}

// Cell appends the next cell of column col and returns its code: the
// number of its spelling in the column's dictionary.
func (b *Builder) Cell(col int, text string) uint32 { return addCell(&b.cols[col], text) }

// CellBytes is Cell for text held in a byte slice, which is copied.
func (b *Builder) CellBytes(col int, text []byte) uint32 { return addCell(&b.cols[col], text) }

// IntCell appends the next cell of column col, spelled as
// strconv.AppendInt spells n, and returns its code. |n| must be below
// 1e15: such a spelling is a plain integer, its own key, so the cell is
// read from n and its text is not parsed.
func (b *Builder) IntCell(col int, n int64) uint32 {
	cb := &b.cols[col]
	code := internInt(cb, n)
	cb.put(code)
	return code
}

// Repeat appends to column col a cell spelled like an earlier one, by
// the code Cell returned for it; neither hashed nor parsed again.
func (b *Builder) Repeat(col int, code uint32) { b.cols[col].put(code) }

// Table seals the builder into its table. The builder must not be
// used afterwards.
func (b *Builder) Table() (*Table, error) {
	t := b.t
	n := len(b.cols[0].cd.codes)
	for c := range b.cols {
		cb := &b.cols[c]
		if cb.err != nil {
			return nil, fmt.Errorf("table %q: column %q: %w", t.name, t.columns[c], cb.err)
		}
		if got := len(cb.cd.codes); got != n {
			return nil, fmt.Errorf("table %q: column %q has %d cells, want %d", t.name, t.columns[c], got, n)
		}
	}
	if n > math.MaxInt32 {
		// Row ids are 32 bits, from the postings to the executor.
		return nil, fmt.Errorf("table %q: %d records, at most %d", t.name, n, math.MaxInt32)
	}
	t.rows = n
	t.cols = make([]columnData, len(b.cols))
	FillColumns(len(b.cols), n, func(c int) { t.cols[c] = b.cols[c].seal() })
	t.kb = make([]atomicPostings, len(t.columns))
	t.numIdx = make([]atomicIndex, len(t.columns))
	t.zones = make([]atomicZones, len(t.columns))
	t.sealBaseBytes()
	return t, nil
}

// BatchRows is the size of the batches FromCSV reads its records in,
// and the fewest records FillColumns spreads over goroutines, so that
// each batch FromCSV reads still fills its columns side by side.
const BatchRows = 8192

// FillColumns runs fill(c) for every column c below ncols, and
// returns when all have run. A batch of at least BatchRows records is
// spread over up to GOMAXPROCS goroutines, the caller's among them,
// each taking the next column off a shared counter; a smaller batch,
// or any batch under GOMAXPROCS 1, runs inline. fill(c) must touch no
// column but c. Each column still takes its cells in record order, so
// which goroutine filled it changes nothing in it.
func FillColumns(ncols, records int, fill func(c int)) {
	workers := 1
	if records >= BatchRows {
		workers = min(runtime.GOMAXPROCS(0), ncols)
	}
	if workers <= 1 {
		for c := 0; c < ncols; c++ {
			fill(c)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for c := int(next.Add(1) - 1); c < ncols; c = int(next.Add(1) - 1) {
			fill(c)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// grow returns s with room for n more elements. When it has to grow s
// it at least doubles it, so a vector grown a few elements at a time is
// copied about once over; append's own steps, a quarter of the length
// past 256 elements, copy it four times over.
func grow[E any](s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]E, 0, max(2*cap(s), len(s)+n, 8)), s...)
}

// trim returns s without room to spare: s itself when it has none, a
// copy otherwise.
func trim[E any](s []E) []E {
	if cap(s) == len(s) {
		return s
	}
	return append(make([]E, 0, len(s)), s...)
}

// probes sums the dictionary and key lookups the build has made,
// entries hashed again by a growing index included.
func (b *Builder) probes() int {
	n := 0
	for c := range b.cols {
		n += b.cols[c].probes
	}
	return n
}

// columnBuilder grows one column. A cell's text is looked up in the
// dictionary; only a spelling not seen before is read, keyed and
// grouped, and every later cell spelled that way copies its reading.
// A plain integer ("1896", "-7") is read directly and is its own key;
// any other spelling goes through ParseValue and appendKey.
type columnBuilder struct {
	cd columnData // under construction; its dictionaries' text is in the buffers below until seal

	text    []byte // the dictionary's text
	excText []byte // the exceptions'

	// enums is the number of each dictionary entry, NaN for one with
	// none; seal copies it to the records that hold the entry.
	enums []float64

	numeric    bool   // some entry has a numeric reading
	nonNumeric bool   // some entry has no numeric reading
	keyBuf     []byte // scratch for rendering keys
	probes     int
	err        error
}

// errTextOverflow reports a column whose dictionary has outgrown its
// 32-bit offsets.
var errTextOverflow = errors.New("more than 4 GiB of distinct cell text")

// extend starts a column holding pd's records, with room for extra
// more. Everything flat is copied; nothing of pd is hashed or parsed.
func (pd *columnData) extend(extra int) columnBuilder {
	n0 := len(pd.codes)
	var b columnBuilder
	cd := &b.cd
	cd.codes = append(make([]uint32, 0, n0+extra), pd.codes...)
	cd.kinds = slices.Clone(pd.kinds)
	cd.dict.ends = slices.Clone(pd.dict.ends)
	cd.dictIx.slots = slices.Clone(pd.dictIx.slots)
	b.text = []byte(pd.dict.text)
	cd.exc.ends = slices.Clone(pd.exc.ends)
	cd.excIx.slots = slices.Clone(pd.excIx.slots)
	cd.excGroup = slices.Clone(pd.excGroup)
	b.excText = []byte(pd.exc.text)
	cd.entryGroup = slices.Clone(pd.entryGroup)
	cd.nkeys = pd.nkeys
	cd.hasNaN = pd.hasNaN
	b.numeric, b.nonNumeric = pd.nums != nil, n0 > 0 && !pd.allNum
	b.enums = make([]float64, pd.dict.Len())
	for e := range b.enums {
		b.enums[e] = math.NaN()
	}
	if pd.nums != nil {
		for r, code := range pd.codes {
			b.enums[code] = pd.nums[r]
		}
	}
	return b
}

// addCell appends a cell by its text.
func addCell[T string | []byte](b *columnBuilder, s T) uint32 {
	code := intern(b, s)
	b.put(code)
	return code
}

// put appends a cell holding dictionary entry code.
func (b *columnBuilder) put(code uint32) {
	if b.err != nil {
		return
	}
	b.cd.codes = append(b.cd.codes, code)
}

// intern returns the dictionary entry spelled s, adding it when the
// column has not held that spelling yet. A spelling plainInt takes
// skips ParseValue and appendKey; it reads back the same value and
// key (FuzzParseValue holds it to that).
func intern[T string | []byte](b *columnBuilder, s T) uint32 {
	if b.err != nil {
		return 0
	}
	h := hashText(s)
	b.probes++
	if e, ok := findText(&b.cd.dictIx, b.text, b.cd.dict.ends, s, h); ok {
		return e
	}
	f, plain := plainInt(s)
	return addEntry(b, s, h, f, plain)
}

// internInt is intern of the plain integer n's spelling, rendered into
// the key scratch, which addEntry leaves alone for a plain integer.
func internInt(b *columnBuilder, n int64) uint32 {
	if b.err != nil {
		return 0
	}
	s := strconv.AppendInt(b.keyBuf[:0], n, 10)
	b.keyBuf = s
	h := hashText(s)
	b.probes++
	if e, ok := findText(&b.cd.dictIx, b.text, b.cd.dict.ends, s, h); ok {
		return e
	}
	return addEntry(b, s, h, float64(n), true)
}

// addEntry adds s, whose hash is h and which the column's dictionary
// does not hold, as its next entry: the one place a cell is read,
// keyed and put into its key group. plain says s is a plain integer
// whose number is f; any other spelling is read by ParseValue.
func addEntry[T string | []byte](b *columnBuilder, s T, h uint64, f float64, plain bool) uint32 {
	cd := &b.cd
	if len(b.text)+len(s) > math.MaxUint32 {
		b.err = errTextOverflow
		return 0
	}
	e := uint32(len(cd.dict.ends))

	kind, numeric, own := Number, plain, plain
	if !plain {
		v := ParseValue(string(s))
		kind = v.Kind
		f, numeric = v.Float()
		b.keyBuf = appendKey(b.keyBuf[:0], v)
		own = string(b.keyBuf) == string(s)
	}
	if numeric {
		b.numeric = true
		cd.hasNaN = cd.hasNaN || math.IsNaN(f)
	} else {
		b.nonNumeric = true
		f = math.NaN()
	}
	b.enums = append(grow(b.enums, 1), f)

	// The key's group, looked up before the spelling joins the
	// dictionary. A spelling that is its own key is new to it, so only
	// an exception can hold its key; a column with none has no group
	// to find.
	var g uint32
	found := false
	kh := h // the key's hash
	switch {
	case !own:
		kind |= otherKey
		kh = hashText(b.keyBuf)
		b.probes++
		g, found = findGroup(cd, b.text, b.excText, b.keyBuf, kh)
	case len(cd.excGroup) > 0:
		b.probes++
		g, found = findGroup(cd, b.text, b.excText, s, h)
	}
	cd.kinds = append(grow(cd.kinds, 1), uint8(kind))
	b.text = append(grow(b.text, len(s)), s...)
	cd.dict.ends = append(grow(cd.dict.ends, 1), uint32(len(b.text)))
	b.probes += insertText(&cd.dictIx, b.text, cd.dict.ends, e, h)

	switch {
	case !found:
		g = uint32(cd.nkeys)
		cd.nkeys++
		if !own {
			if len(b.excText)+len(b.keyBuf) > math.MaxUint32 {
				b.err = errTextOverflow
				return 0
			}
			x := uint32(len(cd.exc.ends))
			b.excText = append(grow(b.excText, len(b.keyBuf)), b.keyBuf...)
			cd.exc.ends = append(grow(cd.exc.ends, 1), uint32(len(b.excText)))
			cd.excGroup = append(grow(cd.excGroup, 1), g)
			b.probes += insertText(&cd.excIx, b.excText, cd.exc.ends, x, kh)
		}
	case cd.entryGroup == nil:
		// The first second spelling of a key: until now entry i was
		// group i.
		cd.entryGroup = make([]uint32, e, e+1)
		for i := range cd.entryGroup {
			cd.entryGroup[i] = uint32(i)
		}
	}
	if cd.entryGroup != nil {
		cd.entryGroup = append(grow(cd.entryGroup, 1), g)
	}
	return e
}

// plainInt reads s when it is an integer spelled the way its key
// renders it: ASCII digits after an optional '-', no leading zero (nor
// "-0", whose number is -0 and whose key is "0"), and at most 15
// digits, so that the number is exact. ParseValue reads such a
// spelling as that number, and its key is the spelling itself.
func plainInt[T string | []byte](s T) (float64, bool) {
	digits := s
	if len(s) > 0 && s[0] == '-' {
		digits = s[1:]
	}
	if len(digits) == 0 || len(digits) > 15 || digits[0] == '0' && len(s) > 1 {
		return 0, false
	}
	var n int64
	for i := 0; i < len(digits); i++ {
		d := digits[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + int64(d)
	}
	if len(digits) < len(s) {
		n = -n
	}
	return float64(n), true
}

// seal finishes the column: the dictionaries' text becomes immutable,
// every vector grown into is trimmed to its length, and every record
// gets its key group and, in a column with a number, its number.
func (b *columnBuilder) seal() columnData {
	cd := b.cd
	// Grown a batch or an entry at a time: the table keeps no room to
	// spare.
	cd.codes, cd.kinds, cd.dict.ends = trim(cd.codes), trim(cd.kinds), trim(cd.dict.ends)
	cd.exc.ends, cd.excGroup, cd.entryGroup = trim(cd.exc.ends), trim(cd.excGroup), trim(cd.entryGroup)
	if b.numeric {
		cd.nums = make([]float64, len(cd.codes))
		for r, code := range cd.codes {
			cd.nums[r] = b.enums[code]
		}
	}
	cd.dict.text = string(b.text)
	cd.exc.text = string(b.excText)
	if cd.entryGroup == nil {
		cd.groups = cd.codes
	} else {
		cd.groups = make([]uint32, len(cd.codes))
		for r, code := range cd.codes {
			cd.groups[r] = cd.entryGroup[code]
		}
	}
	cd.allNum = len(cd.codes) > 0 && !b.nonNumeric
	return cd
}
