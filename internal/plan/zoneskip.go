package plan

import "nlexplain/internal/table"

// Zone-map data skipping.
//
// Zone maps (table.ColumnZones) summarise each column in morsel-sized
// blocks. They serve one scan: a range Compare over a column that
// spells a NaN, which has no sorted index (every other range, and
// every whole-column superlative, reads the index). The scan hands the
// rowFilter kernel a three-valued verdict per morsel, computed from
// the block summaries before the driver starts: zoneNone proves no row
// of the morsel can match, so the kernel skips it without reading a
// row; zoneAll proves every row matches, so the kernel bulk-fills the
// morsel's row range with no per-row evaluation; zoneMaybe runs the
// matcher. Verdicts are conservative by construction, so the produced
// row sets are bitwise identical to a scan under no verdicts at all —
// skipping is invisible except in the Exec's Skipped and Shortcut
// counters.
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
// the predicate's answer for morsel m, with the none/all tallies the
// driver adds to the Exec's Skipped and Shortcut counters.
type zoneScan struct {
	verdicts  []zoneVerdict
	none, all int
}

// rangeZones decides a range Compare against a number literal over
// every zone of column col once, so the kernel does a single slice load
// per morsel. It returns nil when no zone is decided. The verdicts
// mirror rangeMatcher: numbers and dates decide on their reading, NaN
// cells match <= and >= but never < or >, text cells never match, and
// a NaN literal matches every numeric cell — because, as there, <= is
// "not above" and >= "not below".
func (ex *executor) rangeZones(col int, op string, lit float64) *zoneScan {
	zones := ex.t.ColumnZones(col)
	n := ex.t.NumRows()
	strict := op == "<" || op == ">"
	zs := &zoneScan{verdicts: make([]zoneVerdict, len(zones))}
	for z := range zones {
		zn := &zones[z]
		var numNone, numAll bool
		switch op {
		case "<":
			numNone, numAll = !(zn.Min < lit), zn.Max < lit
		case "<=":
			numNone, numAll = zn.Min > lit, !(zn.Max > lit)
		case ">":
			numNone, numAll = !(zn.Max > lit), zn.Min > lit
		case ">=":
			numNone, numAll = zn.Max < lit, !(zn.Min < lit)
		}
		switch {
		case (zn.NumCount == 0 || numNone) && (zn.NaNCount == 0 || strict):
			zs.verdicts[z] = zoneNone
			zs.none++
		case int(zn.NumCount)+int(zn.NaNCount) == min(morselRows, n-z*morselRows) &&
			(zn.NumCount == 0 || numAll) && (zn.NaNCount == 0 || !strict):
			zs.verdicts[z] = zoneAll
			zs.all++
		}
	}
	if zs.none == 0 && zs.all == 0 {
		return nil
	}
	return zs
}
