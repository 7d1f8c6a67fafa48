package table

import (
	"math"
	"sync/atomic"
)

// ZoneRows is the number of records each zone summarises. It equals the
// plan executor's morsel size, so one zone answers for exactly one
// morsel and the parallel kernels can index zones by morsel number.
const ZoneRows = 32768

// Zone is the per-block summary of one column over one ZoneRows-aligned
// window of records: numeric min/max over the cells with a (non-NaN)
// numeric interpretation, lexicographic min/max over every canonical
// key, and counts that let a predicate decide whether the block can be
// skipped outright or bulk-accepted without per-row evaluation.
//
// Min/Max are meaningful only when NumCount > 0 (both are 0 otherwise).
// KeyMin/KeyMax range over all cells — including empty ones, whose
// canonical key is "" — and are windows of the column's key
// dictionary, so a zone slice costs a fixed ~64 bytes per zone.
type Zone struct {
	Min, Max       float64 // over numeric non-NaN cells; zero-valued when NumCount == 0
	KeyMin, KeyMax string  // lexicographic bounds over all canonical keys
	NumCount       int32   // cells with a numeric interpretation, excluding NaN
	NaNCount       int32   // cells whose numeric interpretation is NaN
	EmptyCount     int32   // cells whose canonical key is ""
}

// zoneMap is one column's published zone slice; immutable once published.
type zoneMap struct {
	zones []Zone
}

// atomicZones is the publication slot of one column's zone map,
// following the same Load/CompareAndSwap/Swap discipline as the sorted
// numeric indexes: concurrent first uses may build duplicate (identical)
// maps, but only the published build is charged to the derived-byte
// account.
type atomicZones = atomic.Pointer[zoneMap]

// ZoneCount returns how many zones summarise n records: ceil(n/ZoneRows).
func ZoneCount(n int) int { return (n + ZoneRows - 1) / ZoneRows }

// zoneBytes estimates the resident cost of a zone slice. Key strings
// are windows of the column's key dictionary, so only the fixed struct
// cost is charged.
func zoneBytes(nz int) int64 { return int64(nz)*64 + sliceHeaderBytes }

// computeZone summarises rows [lo,hi) of one column. Keys are compared
// by code first: a record in the group of the running minimum or
// maximum cannot move either.
func computeZone(cd *columnData, lo, hi int) Zone {
	var z Zone
	var minG, maxG uint32
	for r := lo; r < hi; r++ {
		g := cd.groups[r]
		if g == cd.emptyGroup {
			z.EmptyCount++
		}
		if r == lo {
			minG, maxG = g, g
			z.KeyMin = cd.keys.Entry(int(g))
			z.KeyMax = z.KeyMin
		} else if g != minG && g != maxG {
			if k := cd.keys.Entry(int(g)); k < z.KeyMin {
				minG, z.KeyMin = g, k
			} else if k > z.KeyMax {
				maxG, z.KeyMax = g, k
			}
		}
		if cd.nums == nil {
			continue
		}
		f := cd.nums[r]
		if math.IsNaN(f) {
			// A text cell, unless the column spells a NaN.
			if cd.hasNaN && Kind(cd.kinds[cd.codes[r]]) != String {
				z.NaNCount++
			}
			continue
		}
		if z.NumCount == 0 {
			z.Min, z.Max = f, f
		} else if f < z.Min {
			z.Min = f
		} else if f > z.Max {
			z.Max = f
		}
		z.NumCount++
	}
	return z
}

// computeZones builds the full zone slice of one column over n records.
func computeZones(cd *columnData, n int) []Zone {
	zones := make([]Zone, ZoneCount(n))
	for z := range zones {
		lo := z * ZoneRows
		hi := min(lo+ZoneRows, n)
		zones[z] = computeZone(cd, lo, hi)
	}
	return zones
}

// zoneBuilds counts every published zone-map build in the process
// (initial, incremental under Append, and rebuilds after eviction):
// zone maps belong to tables, which engines may share, not to any one
// executor.
var zoneBuilds atomic.Uint64

// ZoneMapBuilds reports how many zone maps the process has published.
func ZoneMapBuilds() uint64 { return zoneBuilds.Load() }

// ZoneBytes reports the resident bytes of the table's published zone
// maps (part of DerivedBytes).
func (t *Table) ZoneBytes() int64 {
	var n int64
	for c := range t.zones {
		if zm := t.zones[c].Load(); zm != nil {
			n += zoneBytes(len(zm.zones))
		}
	}
	return n
}

// publishZones CAS-publishes a freshly built zone slice for column c.
// Returns the resident slice (the freshly published one, or the
// concurrent winner).
func (t *Table) publishZones(c int, zones []Zone) []Zone {
	if t.zones[c].CompareAndSwap(nil, &zoneMap{zones: zones}) {
		zoneBuilds.Add(1)
		derivedBuilds.Add(1)
		return zones
	}
	if zm := t.zones[c].Load(); zm != nil {
		return zm.zones
	}
	return zones
}

// ColumnZones returns the zone maps of column c — one Zone per
// ZoneRows-aligned block of records, ZoneCount(NumRows()) in total.
// The map is built lazily on first use, published atomically, and may
// be dropped again under memory pressure (DropDerivedIndexes); the
// returned slice is shared and must not be modified.
func (t *Table) ColumnZones(c int) []Zone {
	if zm := t.zones[c].Load(); zm != nil {
		return zm.zones
	}
	return t.publishZones(c, computeZones(&t.cols[c], t.rows))
}

// inheritZones maintains zone maps incrementally under copy-on-write
// Append: for every column whose parent published a zone map, the
// zones covering full parent blocks are copied (the shared prefix rows
// are bitwise identical) and only the trailing, partially
// filled or new blocks are recomputed. Columns the parent never
// summarised stay lazy in the child too.
func (nt *Table) inheritZones(t *Table) {
	full := t.rows / ZoneRows // parent zones below this index cover full blocks
	n := nt.rows
	for c := range nt.columns {
		pz := t.zones[c].Load()
		if pz == nil {
			continue
		}
		zones := make([]Zone, ZoneCount(n))
		cd := &nt.cols[c]
		for z := range min(full, len(zones)) {
			// The parent's key bounds are windows of its dictionary;
			// cut the same keys from this table's, or every zone would
			// keep alive the text of the table version that built it.
			zones[z] = pz.zones[z]
			zones[z].KeyMin = cd.ownKey(zones[z].KeyMin)
			zones[z].KeyMax = cd.ownKey(zones[z].KeyMax)
		}
		for z := full; z < len(zones); z++ {
			lo := z * ZoneRows
			zones[z] = computeZone(&nt.cols[c], lo, min(lo+ZoneRows, n))
		}
		nt.publishZones(c, zones)
	}
}

// ownKey returns the column's own copy of a canonical key: the window
// of its key dictionary, or key itself when no record holds it.
func (cd *columnData) ownKey(key string) string {
	if g, ok := group(cd, key); ok {
		return cd.keys.Entry(int(g))
	}
	return key
}

// ZoneSnapshot returns every column's zone maps for persistence: the
// published map where one exists, otherwise a transiently computed one
// (not published, not charged — a checkpoint of a cold table should not
// warm it). The outer slice is freshly allocated; inner slices may be
// shared with the table and must not be modified.
func (t *Table) ZoneSnapshot() [][]Zone {
	out := make([][]Zone, len(t.columns))
	for c := range t.columns {
		if zm := t.zones[c].Load(); zm != nil {
			out[c] = zm.zones
		} else {
			out[c] = computeZones(&t.cols[c], t.rows)
		}
	}
	return out
}

// InstallZoneMaps publishes zone maps recovered from a segment footer,
// skipping the rebuild scan. A snapshot whose shape does not match the
// table (wrong column count, wrong zone count for the row count) is
// ignored wholesale — the maps are rebuilt lazily instead, so a stale
// or foreign footer can never corrupt query results.
func (t *Table) InstallZoneMaps(zones [][]Zone) {
	if len(zones) != len(t.columns) {
		return
	}
	want := ZoneCount(t.rows)
	for _, zs := range zones {
		if len(zs) != want {
			return
		}
	}
	for c, zs := range zones {
		t.publishZones(c, zs)
	}
}
