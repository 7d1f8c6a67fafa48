package table

import "sync/atomic"

// Byte-cost constants for the resident-memory estimate. They follow the
// storage layout term by term; what they leave out is the allocator's
// rounding. TestBaseBytesTracksHeap holds the sum to the measured heap.
const (
	strHeaderBytes   = 16 // string header (ptr + len)
	sliceHeaderBytes = 24 // slice header (ptr + len + cap)
	// perCellFixedBytes covers one cell's share of every per-cell
	// structure besides the string bytes themselves: the raw and
	// canonical-key string headers, the numeric, validity and kind
	// vector entries, and the KB posting entry.
	perCellFixedBytes = 2*strHeaderBytes + 8 + 1 + 1 + 8
	// mapSlotBytes is one slot of a column's key -> group map: a string
	// header, a padded uint32 and a control byte. groupMapBytes counts
	// the slots.
	mapSlotBytes = 25
	// perColumnFixedBytes is what a column costs before its first cell:
	// the columnData struct, its index and zone-map slots, the header
	// string and its colIndex entry, and the header of the group map.
	// tableFixedBytes is the Table struct and the colIndex map header.
	// Both only matter for the small tables the paper is about.
	perColumnFixedBytes = 320
	tableFixedBytes     = 256
)

// memAccount tracks a table's byte footprint: text and dict grow while
// the columns are built, base is sealed from them at the end of the
// build, derived moves as sorted indexes are built and dropped, and
// hook (owned by at most one store) observes every derived delta.
type memAccount struct {
	base    int64
	text    int64 // bytes of the distinct strings held: cell text, and keys that differ from it
	dict    int   // how many such strings
	derived atomic.Int64
	hook    atomic.Pointer[func(delta int64)]
}

// addText books a string the build keeps rather than shares.
func (m *memAccount) addText(s string) {
	m.text += int64(len(s))
	m.dict++
}

// groupMapBytes is the size of a key -> group map of n entries. Go's
// map keeps a power of two of slots, at least 8, and grows past 7/8
// full, so a map is anywhere between 7/16 and 7/8 full and a cost per
// entry would be off by up to a third either way.
func groupMapBytes(n int) int64 {
	slots := 8
	for slots*7/8 < n {
		slots *= 2
	}
	return int64(slots) * mapSlotBytes
}

// sealBaseBytes fixes the base (non-evictable) footprint estimate: the
// held string bytes, the fixed per-cell and per-row structure costs,
// each column's KB offsets and group map, and the fixed cost of the
// table and its columns.
func (t *Table) sealBaseBytes() {
	rows := int64(len(t.raw))
	cells := rows * int64(len(t.columns))
	t.mem.base = t.mem.text + cells*perCellFixedBytes + rows*sliceHeaderBytes +
		int64(len(t.columns))*perColumnFixedBytes + tableFixedBytes
	for c := range t.cols {
		groups := t.cols[c].kb.numGroups()
		t.mem.base += int64(groups)*4 + groupMapBytes(groups)
	}
}

// BaseBytes estimates the table's non-evictable resident footprint:
// the cell strings (each shared string counted once), the typed column
// vectors and the KB index. It is fixed at build time.
func (t *Table) BaseBytes() int64 { return t.mem.base }

// DerivedBytes reports the bytes currently held by lazily built,
// droppable derived structures (the per-column sorted numeric indexes).
func (t *Table) DerivedBytes() int64 { return t.mem.derived.Load() }

// DictEntries reports how many distinct strings the table holds: cells
// that share a string, and keys that are their cell's own text, count
// once.
func (t *Table) DictEntries() int { return t.mem.dict }

// SetMemHook registers fn to observe every change to the table's
// derived-index footprint (positive deltas on index builds, negative on
// drops). At most one hook is active; the versioned store owns it. A
// nil fn detaches the current hook.
func (t *Table) SetMemHook(fn func(delta int64)) {
	if fn == nil {
		t.mem.hook.Store(nil)
		return
	}
	t.mem.hook.Store(&fn)
}

func (t *Table) memNotify(delta int64) {
	if f := t.mem.hook.Load(); f != nil {
		(*f)(delta)
	}
}

// DropDerivedIndexes releases every built sorted numeric index and
// zone map, returning the bytes freed. Base data (cell text, column
// vectors, KB index) is untouched: queries keep answering correctly and any
// dropped structure is rebuilt lazily on next use. This is the store's
// eviction primitive for cold tables under memory pressure.
func (t *Table) DropDerivedIndexes() int64 {
	var freed int64
	for c := range t.numIdx {
		if old := t.numIdx[c].Swap(nil); old != nil {
			freed += indexBytes(len(old.rows))
		}
	}
	var zoneFreed int64
	for c := range t.zones {
		if old := t.zones[c].Swap(nil); old != nil {
			zoneFreed += zoneBytes(len(old.zones))
		}
	}
	if zoneFreed > 0 {
		zoneResidentBytes.Add(-zoneFreed)
		freed += zoneFreed
	}
	if freed > 0 {
		t.mem.derived.Add(-freed)
		t.memNotify(-freed)
	}
	return freed
}

// indexBytes is the byte estimate of one sorted numeric index over n
// records.
func indexBytes(n int) int64 { return int64(n)*8 + sliceHeaderBytes }
