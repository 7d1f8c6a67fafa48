package plan

import (
	"math"
	"reflect"
	"strconv"
	"testing"

	"nlexplain/internal/table"
)

// zoned returns x with zone-map consultation forced on every table
// regardless of size; unzoned returns x with it off — the full-scan
// reference configuration of the differential tests.
func zoned(x *Exec) *Exec   { x.ZoneFloor = 1; return x }
func unzoned(x *Exec) *Exec { x.ZoneFloor = math.MaxInt; return x }

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
		"eq_band":    eq(1, table.ParseValue("band1")),
		"ne_band":    &Compare{Col: 1, Cmp: "!=", V: table.ParseValue("band0")},
		"eq_missing": eq(1, table.ParseValue("nowhere")),
		"or_bands": &Union{
			L: eq(1, table.ParseValue("band0")),
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
		// scans rows. A NaN literal is one key like any other, so the
		// inequality is the complement of its posting list.
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
	t.Parallel()
	tab := clusteredZoneTable(t, 120_000)
	for name, n := range zoneTestPlans() {
		t.Run(name, func(t *testing.T) {
			gotS, errS := runPlan(t, zoned(serial()), n, tab)
			gotP, errP := runPlan(t, zoned(parallel()), n, tab)
			want, wantErr := runPlan(t, unzoned(serial()), n, tab)
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
	t.Parallel()
	tab := clusteredZoneTable(t, 120_000)
	num := func(v float64) table.Value { return table.NumberValue(v) }

	narrow := zoneTestPlans()["range_narrow"]
	x := zoned(serial())
	got, errs := runPlan(t, x, narrow, tab)
	if errs != "" {
		t.Fatal(errs)
	}
	if x.Skipped.Load() == 0 {
		t.Fatal("narrow range over a monotone column skipped no morsels")
	}
	if len(got.Rows) != 1000 || got.Rows[0] != 50_000 {
		t.Fatalf("narrow range rows = %d starting %v, want 1000 starting 50000", len(got.Rows), got.Rows[:min(3, len(got.Rows))])
	}

	all := &Compare{Col: 3, Cmp: ">=", V: num(0)}
	got, errs = runPlan(t, x, all, tab)
	if errs != "" {
		t.Fatal(errs)
	}
	if x.Shortcut.Load() == 0 {
		t.Fatal("always-true range short-circuited no morsels")
	}
	if len(got.Rows) != tab.NumRows() {
		t.Fatalf("always-true range matched %d of %d rows", len(got.Rows), tab.NumRows())
	}
}

// TestZoneConfigRoundTrip pins the zone floor's encoding: 0 is the
// default floor, one zone; 1 consults zone maps on every table and
// math.MaxInt on none.
func TestZoneConfigRoundTrip(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		floor, rows int
		want        bool
	}{
		{0, table.ZoneRows - 1, false}, {0, table.ZoneRows, true},
		{1, 0, false}, {1, 1, true},
		{math.MaxInt, math.MaxInt - 1, false},
	} {
		if got := (&Exec{ZoneFloor: tc.floor}).config(tc.rows).zones; got != tc.want {
			t.Errorf("floor %d over %d rows consults zones: %v, want %v", tc.floor, tc.rows, got, tc.want)
		}
	}
}

// TestZoneDisabledBelowThreshold guards the warm small-table path: at
// the default floor, fixture-sized tables never consult zone maps (so
// their allocation profile is untouched by the zone layer).
func TestZoneDisabledBelowThreshold(t *testing.T) {
	t.Parallel()
	tab := table.MustNew("small", []string{"A"}, [][]string{{"1"}, {"2"}, {"3"}})
	if defaultExec.config(tab.NumRows()).zones {
		t.Fatalf("zone consultation enabled for a %d-row table at the default floor", tab.NumRows())
	}
}
