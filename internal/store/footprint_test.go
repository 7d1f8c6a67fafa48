package store

import (
	"runtime"
	"testing"
)

// registerAllocBound is the most a durable registration of the big
// golden fixture may allocate. Its 4.16 MB register record streams
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
