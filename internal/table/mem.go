package table

import "sync/atomic"

// Byte-cost constants for the resident-memory estimate: what a column
// and a table cost before their first cell. Everything else is read
// off the storage itself, vector by vector: the base once, when the
// build seals it, the derived indexes and zone maps at every
// DerivedBytes call, so a table reports its builds and drops to no
// one. What the estimate leaves out is the allocator's rounding;
// TestBaseBytesTracksHeap holds the sum to the measured heap.
const (
	sliceHeaderBytes = 24 // slice header (ptr + len + cap)
	// perColumnFixedBytes is the columnData struct, the column's
	// postings, index and zone-map slots, the header string and its two
	// colIndex entries. tableFixedBytes is the Table struct and the
	// colIndex map header. Both only matter for the small tables the
	// paper is about.
	perColumnFixedBytes = 488
	tableFixedBytes     = 256
)

// memAccount holds the base footprint, sealed at the end of the
// build; the derived part is read off the published indexes and zone
// maps (DerivedBytes).
type memAccount struct {
	base int64
}

// bytes is what a dictionary keeps: its text and an offset per entry.
func (d Dictionary) bytes() int64 { return int64(len(d.text)) + 4*int64(cap(d.ends)) }

// baseBytes sums the column's storage term by term, at the capacity
// each vector was allocated with. Groups that are codes count once.
func (cd *columnData) baseBytes() int64 {
	n := 8*int64(cap(cd.nums)) + 4*int64(cap(cd.codes)) +
		cd.dict.bytes() + 4*int64(len(cd.dictIx.slots)) + int64(cap(cd.kinds)) +
		cd.exc.bytes() + 4*int64(len(cd.excIx.slots)) + 4*int64(cap(cd.excGroup))
	if cd.entryGroup != nil {
		n += 4*int64(cap(cd.entryGroup)) + 4*int64(cap(cd.groups))
	}
	return n
}

// sealBaseBytes fixes the base (non-evictable) footprint estimate: the
// storage of every column plus the fixed cost of the table and its
// columns.
func (t *Table) sealBaseBytes() {
	t.mem.base = tableFixedBytes + int64(len(t.columns))*perColumnFixedBytes
	for c := range t.cols {
		t.mem.base += t.cols[c].baseBytes()
	}
}

// BaseBytes estimates the table's non-evictable resident footprint:
// the dictionaries and their indexes, the code and typed column
// vectors. It is fixed at build time.
func (t *Table) BaseBytes() int64 { return t.mem.base }

// DerivedBytes reports the bytes of the lazily built, droppable
// derived structures the table currently publishes: its KB postings,
// its sorted numeric indexes and its zone maps, summed at the call.
func (t *Table) DerivedBytes() int64 {
	n := t.ZoneBytes()
	for c := range t.kb {
		if p := t.kb[c].Load(); p != nil {
			n += p.bytes()
		}
	}
	for c := range t.numIdx {
		if idx := t.numIdx[c].Load(); idx != nil {
			n += indexBytes(len(idx.rows))
		}
	}
	return n
}

// derivedBuilds counts the derived structures, postings, sorted
// numeric indexes and zone maps, published in the process.
var derivedBuilds atomic.Uint64

// DerivedBuilds reports how many postings, sorted numeric indexes and
// zone maps the process has published. It moves after each
// publication, so a table's DerivedBytes can have grown only if it
// moved since it was last read.
func DerivedBuilds() uint64 { return derivedBuilds.Load() }

// DropDerivedIndexes releases every built posting list, sorted
// numeric index and zone map, returning the bytes freed. Base data
// (cell text, column vectors, key codes) is untouched: queries keep
// answering correctly and any dropped structure is rebuilt lazily on
// next use. This is the store's eviction primitive for cold tables
// under memory pressure.
func (t *Table) DropDerivedIndexes() int64 {
	var freed int64
	for c := range t.kb {
		if old := t.kb[c].Swap(nil); old != nil {
			freed += old.bytes()
		}
	}
	for c := range t.numIdx {
		if old := t.numIdx[c].Swap(nil); old != nil {
			freed += indexBytes(len(old.rows))
		}
	}
	for c := range t.zones {
		if old := t.zones[c].Swap(nil); old != nil {
			freed += zoneBytes(len(old.zones))
		}
	}
	return freed
}

// indexBytes is the byte estimate of one sorted numeric index over n
// records.
func indexBytes(n int) int64 { return int64(n)*4 + sliceHeaderBytes }
