package table

import (
	"strconv"
	"testing"
)

// zonesBuilt reports whether column c has a published zone map,
// without building one.
func zonesBuilt(t *Table, c int) bool { return t.zones[c].Load() != nil }

// zoneFixtureRows builds n rows over columns {Seq, Band, Mixed}: a
// monotone numeric column, clustered low-cardinality text, and numeric
// data with NaN, empty and text stragglers.
func zoneFixtureRows(n int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		mixed := strconv.Itoa(i % 1000)
		switch {
		case i%101 == 0:
			mixed = "nan"
		case i%113 == 0:
			mixed = ""
		case i%127 == 0:
			mixed = "n/a"
		}
		rows[i] = []string{strconv.Itoa(i), "band" + strconv.Itoa(i/20_000), mixed}
	}
	return rows
}

var zoneFixtureCols = []string{"Seq", "Band", "Mixed"}

func sameZones(a, b []Zone) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		sameNum := (x.Min == y.Min || (x.Min != x.Min && y.Min != y.Min)) &&
			(x.Max == y.Max || (x.Max != x.Max && y.Max != y.Max))
		if !sameNum || x.KeyMin != y.KeyMin || x.KeyMax != y.KeyMax ||
			x.NumCount != y.NumCount || x.NaNCount != y.NaNCount || x.EmptyCount != y.EmptyCount {
			return false
		}
	}
	return true
}

// TestZoneBuildMatchesAppend is the incremental-maintenance property:
// zone maps inherited across a chain of copy-on-write Appends (with
// chunk sizes deliberately misaligned to the zone size) must equal the
// maps a from-scratch build computes over the final rows.
func TestZoneBuildMatchesAppend(t *testing.T) {
	const n = 3*ZoneRows + 1234
	rows := zoneFixtureRows(n)

	// Chunks cross zone boundaries at every offset class: none divides
	// or is divided by ZoneRows.
	cur := MustNew("inc", zoneFixtureCols, rows[:10_000])
	for c := range zoneFixtureCols {
		cur.ColumnZones(c) // force the parent build so Append inherits
	}
	for lo := 10_000; lo < n; {
		hi := min(lo+13_777, n)
		next, err := cur.Append(rows[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		cur = next
		lo = hi
	}

	fresh := MustNew("fresh", zoneFixtureCols, rows)
	for c := range zoneFixtureCols {
		if !zonesBuilt(cur, c) {
			t.Fatalf("col %d: appended table lost its inherited zones", c)
		}
		got, want := cur.ColumnZones(c), fresh.ColumnZones(c)
		if len(got) != ZoneCount(n) {
			t.Fatalf("col %d: %d zones, want %d", c, len(got), ZoneCount(n))
		}
		if !sameZones(got, want) {
			t.Fatalf("col %d: incremental zones diverge from scratch build\ninc:   %+v\nfresh: %+v", c, got, want)
		}
	}
}

// TestZoneEvictionRebuildRoundTrip drops the derived structures (the
// byte-budget eviction path) and rebuilds: the fresh maps must be
// identical, and the resident-bytes gauge must fall and rise again.
func TestZoneEvictionRebuildRoundTrip(t *testing.T) {
	const n = 2*ZoneRows + 99
	tab := MustNew("evict", zoneFixtureCols, zoneFixtureRows(n))
	var before [][]Zone
	for c := range zoneFixtureCols {
		before = append(before, tab.ColumnZones(c))
	}
	residentBuilt := tab.ZoneBytes()

	if freed := tab.DropDerivedIndexes(); freed <= 0 {
		t.Fatalf("DropDerivedIndexes freed %d bytes with zones resident", freed)
	}
	for c := range zoneFixtureCols {
		if zonesBuilt(tab, c) {
			t.Fatalf("col %d: zones survived eviction", c)
		}
	}
	if resident := tab.ZoneBytes(); resident != 0 || residentBuilt <= 0 {
		t.Fatalf("resident zone bytes %d after eviction, %d before; want 0 after", resident, residentBuilt)
	}

	for c := range zoneFixtureCols {
		after := tab.ColumnZones(c)
		if !sameZones(before[c], after) {
			t.Fatalf("col %d: rebuilt zones differ from the evicted ones", c)
		}
	}
	if resident := tab.ZoneBytes(); resident != residentBuilt {
		t.Fatalf("resident zone bytes %d after rebuild, want the pre-eviction %d", resident, residentBuilt)
	}
}

// TestZoneSnapshotInstallRoundTrip pins the persistence contract:
// ZoneSnapshot over a cold table computes without publishing, the
// snapshot installs onto a rebuilt table, and a shape-mismatched
// install is ignored wholesale (lazy rebuild stays correct).
func TestZoneSnapshotInstallRoundTrip(t *testing.T) {
	const n = ZoneRows + 7
	rows := zoneFixtureRows(n)
	cold := MustNew("cold", zoneFixtureCols, rows)
	snap := cold.ZoneSnapshot()
	if len(snap) != len(zoneFixtureCols) {
		t.Fatalf("snapshot covers %d of %d columns", len(snap), len(zoneFixtureCols))
	}
	for c := range zoneFixtureCols {
		if zonesBuilt(cold, c) {
			t.Fatalf("col %d: ZoneSnapshot published zones on a cold table", c)
		}
	}

	warm := MustNew("warm", zoneFixtureCols, rows)
	warm.InstallZoneMaps(snap)
	for c := range zoneFixtureCols {
		if !zonesBuilt(warm, c) {
			t.Fatalf("col %d: snapshot did not install", c)
		}
		if !sameZones(snap[c], warm.ColumnZones(c)) {
			t.Fatalf("col %d: installed zones differ from the snapshot", c)
		}
	}

	// Wrong shapes — column count or zone count — are rejected whole.
	reject := MustNew("reject", zoneFixtureCols, rows)
	reject.InstallZoneMaps(snap[:1])
	reject.InstallZoneMaps([][]Zone{snap[0][:1], snap[1], snap[2]})
	for c := range zoneFixtureCols {
		if zonesBuilt(reject, c) {
			t.Fatalf("col %d: shape-mismatched snapshot was installed", c)
		}
	}
}

// TestZoneContents spot-checks the summaries themselves on a hand-built
// column: bounds over numeric cells only, key bounds over every
// canonical key, and the NaN/empty tallies.
func TestZoneContents(t *testing.T) {
	rows := [][]string{
		{"5"}, {"nan"}, {""}, {"text"}, {"-3"}, {"12"},
	}
	tab := MustNew("tiny", []string{"A"}, rows)
	zs := tab.ColumnZones(0)
	if len(zs) != 1 {
		t.Fatalf("%d zones, want 1", len(zs))
	}
	z := zs[0]
	if z.Min != -3 || z.Max != 12 {
		t.Errorf("numeric bounds [%v, %v], want [-3, 12]", z.Min, z.Max)
	}
	if z.NumCount != 3 || z.NaNCount != 1 || z.EmptyCount != 1 {
		t.Errorf("counts num=%d nan=%d empty=%d, want 3/1/1", z.NumCount, z.NaNCount, z.EmptyCount)
	}
	if z.KeyMin != "" {
		t.Errorf("KeyMin = %q, want empty string (lexicographic floor)", z.KeyMin)
	}
	if z.KeyMax != "text" {
		t.Errorf("KeyMax = %q, want %q", z.KeyMax, "text")
	}
}

// TestZoneInheritedKeysAreOwnWindows: the key bounds of the zones an
// appended table inherits are cut from its own key dictionary, so a
// chain of appends does not keep every ancestor's text alive through
// its zone maps.
func TestZoneInheritedKeysAreOwnWindows(t *testing.T) {
	rows := zoneFixtureRows(ZoneRows + 10)
	parent := MustNew("zones", zoneFixtureCols, rows)
	for c := range zoneFixtureCols {
		parent.ColumnZones(c)
	}
	child, err := parent.Append(rows[:5])
	if err != nil {
		t.Fatal(err)
	}
	for c := range zoneFixtureCols {
		if !zonesBuilt(child, c) {
			t.Fatalf("col %d: zones not inherited", c)
		}
		for z, zone := range child.ColumnZones(c) {
			text := child.cols[c].keys.text
			if !within(zone.KeyMin, text) || !within(zone.KeyMax, text) {
				t.Errorf("col %d zone %d: key bounds %q..%q are not windows of the table's own key text", c, z, zone.KeyMin, zone.KeyMax)
			}
		}
	}
}
