package store

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// TestStoreHookOrderUnderChurn pins the displaced chain under
// contention: install records the version it replaced while it holds
// the shard, so for any one table the snapshots installed under it,
// sorted by generation, each report the version installed just before
// them — or "" when that one was dropped, or when they are the first.
// Eight goroutines hammer four names (two writers per name) through
// register/append/drop lifecycles.
func TestStoreHookOrderUnderChurn(t *testing.T) {
	st := New(Options{})
	var mu sync.Mutex
	installs := make(map[string][]*Snapshot)
	dropped := make(map[uint64]bool) // generations of dropped snapshots
	record := func(name string, snap *Snapshot) {
		mu.Lock()
		installs[name] = append(installs[name], snap)
		mu.Unlock()
	}

	const goroutines = 8
	const iters = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Two goroutines share each name, so registers, appends and
			// drops genuinely interleave on one shard entry.
			name := fmt.Sprintf("hook-%d", g%4)
			for i := 0; i < iters; i++ {
				snap, err := st.Register(mustTable(t, name, 2+i%3))
				if err != nil {
					t.Errorf("Register(%s): %v", name, err)
					return
				}
				record(name, snap)
				// The peer may have dropped the table in between;
				// unknown-table is then legitimate.
				if snap, err := st.Append(name, [][]string{{"nation0", "2000", "1"}}); err == nil {
					record(name, snap)
				}
				if old, ok, _ := st.Drop(name); ok {
					mu.Lock()
					if dropped[old.Gen()] {
						t.Errorf("%s: generation %d dropped twice", name, old.Gen())
					}
					dropped[old.Gen()] = true
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()

	for name, snaps := range installs {
		sort.Slice(snaps, func(i, j int) bool { return snaps[i].Gen() < snaps[j].Gen() })
		for i, snap := range snaps {
			want := ""
			if i > 0 && !dropped[snaps[i-1].Gen()] {
				want = snaps[i-1].Version()
			}
			if snap.Displaced() != want {
				t.Fatalf("%s install %d (gen %d): displaced %q, want %q", name, i, snap.Gen(), snap.Displaced(), want)
			}
		}
	}
}
