package store

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// registerAllocBound is the most a durable registration of the big
// golden fixture may allocate. Its 3.05 MB register record streams
// into the log in pieces of at most 64 KiB, one buffer for each of the
// WAL's two passes: 132 480 bytes. Encoding the record into one buffer
// and copying that into the log's buffer read 9 962 736.
const registerAllocBound = 1 << 20

// TestRegisterAllocBytes pins what a durable registration of the
// 131072 x 6 golden fixture allocates, the table itself built
// beforehand: the bytes its register record costs on the way to the
// log.
func TestRegisterAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	if testing.Short() {
		t.Skip("131072-row fixture")
	}
	columns, rows := bigReprRows()
	tab := mustNew(t, "big", columns, rows)
	st := openDurable(t, t.TempDir())
	defer st.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := st.Register(tab); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Register of %d cells allocated %d bytes", tab.NumRows()*tab.NumCols(), got)
	if got > registerAllocBound {
		t.Errorf("Register allocated %d bytes, want at most %d", got, registerAllocBound)
	}
}

// csvBytes is the size of a relation as CSV, the denominator of the
// store's bytes-per-user-byte ratios: the header, then each record's
// cells, one separator (comma or newline) after every name and cell.
func csvBytes(columns []string, rows [][]string) int {
	n := len(columns)
	for _, c := range columns {
		n += len(c)
	}
	for _, r := range rows {
		n += len(r)
		for _, cell := range r {
			n += len(cell)
		}
	}
	return n
}

// TestSegmentBytesPerUserByte bounds what the store keeps on disk for
// each golden fixture, per byte of the fixture as CSV: the register
// record's payload over its base table, and the checkpointed segment
// file over the whole relation.
func TestSegmentBytesPerUserByte(t *testing.T) {
	for _, fx := range goldenFixtures {
		t.Run(fx.name, func(t *testing.T) {
			if fx.big && testing.Short() {
				t.Skip("131072-row fixture")
			}
			base, appends := fx.build(t)
			dir := t.TempDir()
			st, payloads := loggedRegisters(t, dir, base)
			defer st.Close()
			if len(payloads) != 1 {
				t.Fatalf("%d register records, want 1", len(payloads))
			}
			rows := base.RawRows()
			baseBytes := csvBytes(base.Columns(), rows)
			for _, more := range appends {
				if _, err := st.Append(base.Name(), more); err != nil {
					t.Fatal(err)
				}
				rows = append(rows, more...)
			}
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
			if err != nil || len(segs) != 1 {
				t.Fatalf("segment files %v, %v", segs, err)
			}
			fi, err := os.Stat(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			reg := float64(len(payloads[0])) / float64(baseBytes)
			seg := float64(fi.Size()) / float64(csvBytes(base.Columns(), rows))
			t.Logf("%s: register record %d bytes, %.5f per CSV byte; segment %d bytes, %.5f per CSV byte",
				fx.name, len(payloads[0]), reg, fi.Size(), seg)
			if reg > fx.registerPerByte {
				t.Errorf("register record of %s: %.4f bytes per CSV byte, bound %.4f", fx.name, reg, fx.registerPerByte)
			}
			if seg > fx.segmentPerByte {
				t.Errorf("segment of %s: %.4f bytes per CSV byte, bound %.4f", fx.name, seg, fx.segmentPerByte)
			}
		})
	}
}
