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
// window of records: what a range predicate or a superlative reads to
// skip the block outright, or to bulk-accept it without evaluating a
// row. It is built lazily, held in memory only, and never persisted.
//
// Min/Max are meaningful only when NumCount > 0 (both are 0 otherwise).
type Zone struct {
	Min, Max float64 // over numeric non-NaN cells; zero-valued when NumCount == 0
	NumCount int32   // cells with a numeric interpretation, excluding NaN
	NaNCount int32   // cells whose numeric interpretation is NaN
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

// zoneBytes is the resident cost of a slice of nz zones: two float64s
// and two int32s each.
func zoneBytes(nz int) int64 { return int64(nz)*24 + sliceHeaderBytes }

// computeZone summarises rows [lo,hi) of one column.
func computeZone(cd *columnData, lo, hi int) Zone {
	var z Zone
	if cd.nums == nil {
		return z
	}
	for r := lo; r < hi; r++ {
		f := cd.nums[r]
		if math.IsNaN(f) {
			// A text cell, unless the column spells a NaN.
			if cd.hasNaN && cd.kindOf(cd.codes[r]) != String {
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
// (first builds and rebuilds after eviction):
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

// ColumnZones returns the zone maps of column c — one Zone per
// ZoneRows-aligned block of records, ZoneCount(NumRows()) in total.
// The map is built lazily on first use, from this table's records
// alone, published atomically, and may be dropped again under memory
// pressure (DropDerivedIndexes); it is never persisted. The returned
// slice is shared and must not be modified.
func (t *Table) ColumnZones(c int) []Zone {
	zm, published := derive(&t.zones[c], func() *zoneMap {
		return &zoneMap{zones: computeZones(&t.cols[c], t.rows)}
	})
	if published {
		zoneBuilds.Add(1)
	}
	return zm.zones
}

// ZoneSnapshot returns ColumnZones of every column, building and
// publishing those not yet built. It is kept only because the
// benchmark module's trace compiles against it.
func (t *Table) ZoneSnapshot() [][]Zone {
	out := make([][]Zone, len(t.columns))
	for c := range out {
		out[c] = t.ColumnZones(c)
	}
	return out
}
