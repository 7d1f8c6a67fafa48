package store

import (
	"fmt"
	"sync"
	"testing"
)

// TestStoreHookOrderUnderChurn pins the OnEvent delivery contract
// under contention: hooks fire synchronously inside the mutation's
// critical section, so for any one table the observed event sequence
// must match the generation order of the snapshots it installs — no
// reordering, no skipped installs, and every drop referencing exactly
// the snapshot it displaced. Eight goroutines hammer four names (two
// writers per name) through register/append/drop lifecycles.
func TestStoreHookOrderUnderChurn(t *testing.T) {
	st := New(Options{})
	type evrec struct {
		kind EventKind
		gen  uint64
	}
	var mu sync.Mutex
	events := make(map[string][]evrec)
	st.OnEvent(func(ev Event) {
		gen := uint64(0)
		if ev.New != nil {
			gen = ev.New.Gen()
		} else if ev.Old != nil {
			gen = ev.Old.Gen()
		}
		mu.Lock()
		events[ev.Name] = append(events[ev.Name], evrec{ev.Kind, gen})
		mu.Unlock()
	})

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
				if _, err := st.Register(mustTable(t, name, 3)); err != nil {
					t.Errorf("Register(%s): %v", name, err)
					return
				}
				// The peer may have dropped the table in between;
				// unknown-table is then legitimate.
				_, _ = st.Append(name, [][]string{{"nation0", "2000", "1"}})
				_, _, _ = st.Drop(name)
			}
		}(g)
	}
	wg.Wait()

	for name, evs := range events {
		var lastInstall uint64
		haveInstall := false
		for i, ev := range evs {
			switch ev.kind {
			case Registered, Replaced:
				if ev.gen <= lastInstall {
					t.Fatalf("%s event %d: install generation %d not past previous install %d — delivery out of generation order",
						name, i, ev.gen, lastInstall)
				}
				if ev.kind == Registered && haveInstall {
					t.Fatalf("%s event %d: Registered while a snapshot was resident (gen %d)", name, i, lastInstall)
				}
				if ev.kind == Replaced && !haveInstall {
					t.Fatalf("%s event %d: Replaced with no resident snapshot", name, i)
				}
				lastInstall = ev.gen
				haveInstall = true
			case Dropped:
				if !haveInstall {
					t.Fatalf("%s event %d: Dropped with no resident snapshot", name, i)
				}
				if ev.gen != lastInstall {
					t.Fatalf("%s event %d: drop references generation %d, resident was %d",
						name, i, ev.gen, lastInstall)
				}
				haveInstall = false
			}
		}
	}
}
