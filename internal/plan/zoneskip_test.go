package plan

import (
	"math"
	"reflect"
	"strconv"
	"testing"

	"nlexplain/internal/table"
)

// forceZones forces zone-map consultation on every table regardless of
// size (threshold 0), restoring the previous configuration after.
func forceZones(tb testing.TB) {
	tb.Helper()
	prev := SetZoneSkipThreshold(0)
	tb.Cleanup(func() { SetZoneSkipThreshold(prev) })
}

// zonesOff disables zone consultation entirely — the full-scan
// reference configuration of the differential tests — with a floor
// above every table.
func zonesOff(tb testing.TB) {
	tb.Helper()
	prev := SetZoneSkipThreshold(math.MaxInt32)
	tb.Cleanup(func() { SetZoneSkipThreshold(prev) })
}

// clusteredZoneTable builds an n-row table whose columns actually give
// zone maps something to prove: Seq is monotone (every zone a disjoint
// numeric range), Band is clustered low-cardinality text (most zones
// hold one key), Mixed is numeric data with NaN, empty and text
// stragglers so verdicts must honour the NaN/empty tallies, and SeqNaN
// is Seq with a NaN last cell — not indexable, so every range over it
// is a scan under zone verdicts, and its clean zones can be all-match.
func clusteredZoneTable(tb testing.TB, n int) *table.Table {
	tb.Helper()
	rows := make([][]string, n)
	for i := range rows {
		mixed := strconv.Itoa(i % 1000)
		switch {
		case i%509 == 0:
			mixed = "nan"
		case i%757 == 0:
			mixed = ""
		case i%1021 == 0:
			mixed = "n/a"
		}
		seqNaN := strconv.Itoa(i)
		if i == n-1 {
			seqNaN = "nan"
		}
		rows[i] = []string{
			strconv.Itoa(i),
			"band" + strconv.Itoa(i/40_000),
			mixed,
			seqNaN,
		}
	}
	return table.MustNew("clustered", []string{"Seq", "Band", "Mixed", "SeqNaN"}, rows)
}

// zoneTestPlans enumerates the scan shapes the zone layer decides:
// ranges over SeqNaN (narrow, wide, empty, and an intersection of two),
// ranges over the indexable Seq where the zones or the sorted index may
// answer, equality and inequality over interned keys (answered from the
// posting lists, never from zones), ranges over the dirty Mixed column
// (NaN/empty/text cells), NaN literals, and a full-table superlative.
func zoneTestPlans() map[string]Node {
	num := func(v float64) table.Value { return table.NumberValue(v) }
	return map[string]Node{
		"range_narrow": &Intersect{
			L: &Compare{Col: 3, Cmp: ">=", V: num(50_000)},
			R: &Compare{Col: 3, Cmp: "<", V: num(51_000)},
		},
		"range_wide": &Compare{Col: 3, Cmp: ">=", V: num(10)},
		"range_none": &Compare{Col: 3, Cmp: "<", V: num(-5)},
		// not(SeqNaN < 100000): the complement of a range is a range,
		// the NaN cell included (it compares equal to everything).
		"not_range":  &Compare{Col: 3, Cmp: ">=", V: num(100_000)},
		"eq_band":    &Compare{Col: 1, Cmp: "=", V: table.ParseValue("band1")},
		"ne_band":    &Compare{Col: 1, Cmp: "!=", V: table.ParseValue("band0")},
		"eq_missing": &Compare{Col: 1, Cmp: "=", V: table.ParseValue("nowhere")},
		"or_bands": &Union{
			L: &Compare{Col: 1, Cmp: "=", V: table.ParseValue("band0")},
			R: &Compare{Col: 0, Cmp: ">=", V: num(110_000)},
		},
		"mixed_range": &Intersect{
			L: &Compare{Col: 2, Cmp: ">=", V: num(100)},
			R: &Compare{Col: 2, Cmp: "<", V: num(200)},
		},
		"mixed_nan_le": &Compare{Col: 2, Cmp: "<=", V: num(math.NaN())},
		"mixed_nan_lt": &Compare{Col: 2, Cmp: "<", V: num(math.NaN())},
		"compare_ge":   &Compare{Col: 0, Cmp: ">=", V: num(117_000)},
		// Mixed holds NaN cells, so it has no sorted index: the range
		// scans rows. A NaN literal makes key identity and Value.Equal
		// disagree, so the inequality scans with Equal semantics.
		"compare_mixed":  &Compare{Col: 2, Cmp: ">", V: num(500)},
		"compare_ne_nan": &Compare{Col: 2, Cmp: "!=", V: num(math.NaN())},
		"superlative":    &Superlative{Col: 0, Max: true, Input: &Scan{}},
	}
}

// TestZoneForcedMatchesFullScan is the zone-layer differential gate:
// with consultation forced on every table, serial and parallel zone
// scans must reproduce the zones-disabled full scan bitwise — rows,
// values, witness cells and errors.
func TestZoneForcedMatchesFullScan(t *testing.T) {
	tab := clusteredZoneTable(t, 120_000)
	for name, n := range zoneTestPlans() {
		t.Run(name, func(t *testing.T) {
			forceZones(t)
			forceSerial(t)
			gotS, errS := runPlan(t, n, tab)
			forceParallel(t)
			gotP, errP := runPlan(t, n, tab)
			zonesOff(t)
			forceSerial(t)
			want, wantErr := runPlan(t, n, tab)
			if wantErr != errS || wantErr != errP {
				t.Fatalf("error mismatch: full-scan=%q zone-serial=%q zone-parallel=%q", wantErr, errS, errP)
			}
			if !reflect.DeepEqual(want, gotS) {
				t.Fatalf("serial zone scan differs from full scan\nfull: %+v\nzone: %+v", want, gotS)
			}
			if !reflect.DeepEqual(want, gotP) {
				t.Fatalf("parallel zone scan differs from full scan\nfull: %+v\nzone: %+v", want, gotP)
			}
		})
	}
}

// TestZoneScanSkipsAndShortcuts proves the counters move: a narrow
// range over the monotone, unindexable column must skip morsels, and an
// always-true range must short-circuit morsels into bulk fills, while
// both keep the result identical to the full scan.
func TestZoneScanSkipsAndShortcuts(t *testing.T) {
	tab := clusteredZoneTable(t, 120_000)
	forceZones(t)
	forceSerial(t)
	num := func(v float64) table.Value { return table.NumberValue(v) }

	narrow := zoneTestPlans()["range_narrow"]
	skipBefore, _ := SkipStats()
	got, errs := runPlan(t, narrow, tab)
	if errs != "" {
		t.Fatal(errs)
	}
	if skipAfter, _ := SkipStats(); skipAfter == skipBefore {
		t.Fatal("narrow range over a monotone column skipped no morsels")
	}
	if len(got.Rows) != 1000 || got.Rows[0] != 50_000 {
		t.Fatalf("narrow range rows = %d starting %v, want 1000 starting 50000", len(got.Rows), got.Rows[:min(3, len(got.Rows))])
	}

	all := &Compare{Col: 3, Cmp: ">=", V: num(0)}
	_, cutBefore := SkipStats()
	got, errs = runPlan(t, all, tab)
	if errs != "" {
		t.Fatal(errs)
	}
	if _, cutAfter := SkipStats(); cutAfter == cutBefore {
		t.Fatal("always-true range short-circuited no morsels")
	}
	if len(got.Rows) != tab.NumRows() {
		t.Fatalf("always-true range matched %d of %d rows", len(got.Rows), tab.NumRows())
	}
}

// TestZoneConfigRoundTrip pins the configuration API: the setter
// returns the previous value, an explicit threshold of 0 forces
// consultation, math.MaxInt32 turns it off, and a negative threshold
// restores the default floor.
func TestZoneConfigRoundTrip(t *testing.T) {
	prevT := SetZoneSkipThreshold(0)
	defer SetZoneSkipThreshold(prevT)
	if ZoneSkipThreshold() != 0 {
		t.Fatalf("forced threshold = %d, want 0", ZoneSkipThreshold())
	}
	if !resolveConfig(1).zones {
		t.Fatal("threshold 0 does not force consultation on a one-row table")
	}
	SetZoneSkipThreshold(math.MaxInt32)
	if ZoneSkipThreshold() != math.MaxInt32 {
		t.Fatalf("off threshold = %d, want %d", ZoneSkipThreshold(), math.MaxInt32)
	}
	if resolveConfig(math.MaxInt32 - 1).zones {
		t.Fatal("threshold math.MaxInt32 still consults zone maps")
	}
	if got := SetZoneSkipThreshold(0); got != math.MaxInt32 {
		t.Fatalf("SetZoneSkipThreshold returned %d, want %d", got, math.MaxInt32)
	}
	if got := SetZoneSkipThreshold(99); got != 0 {
		t.Fatalf("SetZoneSkipThreshold returned %d, want 0", got)
	}
	if ZoneSkipThreshold() != 99 {
		t.Fatalf("threshold = %d, want 99", ZoneSkipThreshold())
	}
	SetZoneSkipThreshold(-1)
	if ZoneSkipThreshold() != table.ZoneRows {
		t.Fatalf("default threshold = %d, want %d", ZoneSkipThreshold(), table.ZoneRows)
	}
}

// TestZoneDisabledBelowThreshold guards the warm small-table path: at
// the default floor, fixture-sized tables never consult zone maps (so
// their allocation profile is untouched by the zone layer).
func TestZoneDisabledBelowThreshold(t *testing.T) {
	tab := table.MustNew("small", []string{"A"}, [][]string{{"1"}, {"2"}, {"3"}})
	if resolveConfig(tab.NumRows()).zones {
		t.Fatalf("zone consultation enabled for a %d-row table at default threshold %d",
			tab.NumRows(), ZoneSkipThreshold())
	}
}
