package plan

import (
	"math"

	"nlexplain/internal/table"
)

// Zone-map data skipping.
//
// Zone maps (table.ColumnZones) summarise each column in morsel-sized
// blocks. A scan of the whole row space hands the rowFilter kernel a
// three-valued verdict per morsel, computed from the block summaries
// before the driver starts: zoneNone proves no row of the morsel can
// match, so the kernel skips it without reading a row; zoneAll proves
// every row matches, so the kernel bulk-fills the morsel's row range
// with no per-row evaluation; zoneMaybe runs the matcher. Verdicts are
// conservative by construction, so the produced row sets are bitwise
// identical to a scan under no verdicts at all — skipping is invisible
// except in the Exec's Skipped and Shortcut counters.
//
// Zone maps only pay off past a size floor (building them walks the
// column once), so consultation is gated on the Exec's ZoneFloor; the
// default floor of one zone keeps the warm small-table path exactly as
// allocation-free as before.

// The zone size and the morsel size must stay equal: kernels index a
// column's zone slice directly by morsel number.
var _ = [1]struct{}{}[morselRows-table.ZoneRows]

// zoneVerdict is a predicate's three-valued answer over one zone.
type zoneVerdict uint8

const (
	zoneMaybe zoneVerdict = iota // must evaluate per row
	zoneNone                     // provably no row matches
	zoneAll                      // provably every row matches
)

// zoneScan is one scan's materialized verdict vector: verdicts[m] is
// the predicate's answer for morsel m, with none/all tallies so
// callers can tell whether consulting the zones bought anything.
type zoneScan struct {
	verdicts  []zoneVerdict
	none, all int
}

// materializeZones evaluates a verdict function over every zone once,
// so the kernel does a single slice load per morsel. It returns nil
// when no zone is decided.
func (ex *executor) materializeZones(f func(z int) zoneVerdict) *zoneScan {
	nz := morselCount(ex.t.NumRows())
	zs := &zoneScan{verdicts: make([]zoneVerdict, nz)}
	for z := 0; z < nz; z++ {
		v := f(z)
		zs.verdicts[z] = v
		switch v {
		case zoneNone:
			zs.none++
		case zoneAll:
			zs.all++
		}
	}
	if zs.none == 0 && zs.all == 0 {
		return nil
	}
	return zs
}

// zoneLen is the number of rows zone z covers in a table of n rows.
func zoneLen(z, n int) int { return min(morselRows, n-z*morselRows) }

// zoneRangeFn builds the verdict function of a range Compare against a
// number literal. It mirrors rangeMatcher: plain-numeric cells decide
// on their float ordering, NaN cells compare equal to everything (so
// they match <= and >= but never < or >), and non-numeric cells never
// match.
func (ex *executor) zoneRangeFn(col int, op string, lit float64) func(z int) zoneVerdict {
	zones := ex.t.ColumnZones(col)
	n := ex.t.NumRows()
	if math.IsNaN(lit) {
		if op == "<" || op == ">" {
			// Strict comparison against NaN is false for every cell.
			return func(int) zoneVerdict { return zoneNone }
		}
		// <= / >= against NaN match exactly the numeric (incl. NaN) cells.
		return func(z int) zoneVerdict {
			zn := &zones[z]
			switch numeric := int(zn.NumCount) + int(zn.NaNCount); numeric {
			case 0:
				return zoneNone
			case zoneLen(z, n):
				return zoneAll
			}
			return zoneMaybe
		}
	}
	strict := op == "<" || op == ">"
	return func(z int) zoneVerdict {
		zn := &zones[z]
		var numNone, numAll bool
		switch op {
		case "<":
			numNone, numAll = zn.Min >= lit, zn.Max < lit
		case "<=":
			numNone, numAll = zn.Min > lit, zn.Max <= lit
		case ">":
			numNone, numAll = zn.Max <= lit, zn.Min > lit
		case ">=":
			numNone, numAll = zn.Max < lit, zn.Min >= lit
		}
		if (zn.NumCount == 0 || numNone) && (zn.NaNCount == 0 || strict) {
			return zoneNone
		}
		if int(zn.NumCount)+int(zn.NaNCount) == zoneLen(z, n) &&
			(zn.NumCount == 0 || numAll) && (zn.NaNCount == 0 || !strict) {
			return zoneAll
		}
		return zoneMaybe
	}
}

// zoneSuperlative answers a full-table superlative over a clean
// all-numeric column from its zone maps, without building the sorted
// index: the global extreme is the extreme of the zone bounds, a zone
// whose bound misses it holds no achieving row, and a constant zone
// that achieves it holds nothing else — so only the remaining zones
// are read to collect the tie group (in ascending record order,
// exactly the index path's output). Returns ok=false when consultation
// is gated off or the sorted index is already resident (then the
// sublinear index path wins).
func (ex *executor) zoneSuperlative(col int, wantMax bool, nums []float64) ([]int32, bool, error) {
	t := ex.t
	if !ex.cfg.zones || t.NumericIndexBuilt(col) {
		return nil, false, nil
	}
	zones := t.ColumnZones(col)
	if len(zones) == 0 {
		return nil, false, nil
	}
	// An indexable all-numeric column has no NaN and no text cells, so
	// every zone's Min/Max summarise all of its rows.
	bound := func(z int) float64 {
		if wantMax {
			return zones[z].Max
		}
		return zones[z].Min
	}
	best := bound(0)
	for z := 1; z < len(zones); z++ {
		if wantMax {
			best = max(best, bound(z))
		} else {
			best = min(best, bound(z))
		}
	}
	zs := ex.materializeZones(func(z int) zoneVerdict {
		switch {
		case bound(z) != best:
			return zoneNone
		case zones[z].Min == zones[z].Max:
			return zoneAll
		}
		return zoneMaybe
	})
	rows, err := ex.scan(func(r int32) bool { return nums[r] == best }, zs)
	return rows, err == nil, err
}
