package store

import (
	"strconv"
	"testing"
	"time"

	"nlexplain/internal/table"
)

// getBlocksOn runs st.Get(name) while the write lock of sh is held,
// and reports whether the Get was still waiting after wait: a Get
// that sums the resident tables read-locks every shard, one that sums
// nothing touches only its own.
func getBlocksOn(st *Store, sh *shard, name string, wait time.Duration) bool {
	sh.mu.Lock()
	done := make(chan struct{})
	go func() {
		st.Get(name)
		close(done)
	}()
	var blocked bool
	select {
	case <-done:
	case <-time.After(wait):
		blocked = true
	}
	sh.mu.Unlock()
	<-done
	return blocked
}

// TestBudgetedGetSweepsOnlyAfterBuild holds a budgeted store's Get to
// its gate: with no sorted numeric index or zone map published in the
// process since the store's last sweep, a Get sums nothing; after one,
// the next Get sums the resident tables. The counter is process-wide,
// so a build elsewhere in the test binary between the sweep and the
// Get is retried, not failed.
func TestBudgetedGetSweepsOnlyAfterBuild(t *testing.T) {
	st := New(Options{ByteBudget: 1 << 40})
	tab := mustTable(t, "a", 32)
	st.Register(tab)
	st.Register(mustTable(t, "b", 32))
	var other *shard
	for _, sh := range st.shards {
		if sh != st.shardFor("a") {
			other = sh
			break
		}
	}

	for attempt := 0; ; attempt++ {
		st.Get("a") // sweeps whatever was built before
		builds := table.DerivedBuilds()
		if !getBlocksOn(st, other, "a", time.Second) {
			break
		}
		if table.DerivedBuilds() == builds || attempt == 3 {
			t.Fatal("a Get with no build since the last sweep summed the resident tables")
		}
	}

	buildDerived(tab)
	if !getBlocksOn(st, other, "a", 20*time.Millisecond) {
		t.Fatal("the first Get after an index build did not sum the resident tables")
	}
	checkResident(t, st, "after the sweep")
}

// BenchmarkStoreGetBudgeted times Get on a store of 96 60-row tables,
// with no budget and with a budget nothing exceeds, after no build.
func BenchmarkStoreGetBudgeted(b *testing.B) {
	for _, budget := range []int64{0, 1 << 40} {
		b.Run("budget="+strconv.FormatInt(budget, 10), func(b *testing.B) {
			st := New(Options{ByteBudget: budget})
			rows := make([][]string, 60)
			for i := range rows {
				rows[i] = []string{"nation" + strconv.Itoa(i%7), strconv.Itoa(1896 + 4*i), strconv.Itoa(i * 3)}
			}
			names := make([]string, 96)
			for i := range names {
				names[i] = "t" + strconv.Itoa(i)
				tab, err := table.New(names[i], []string{"Nation", "Year", "Games"}, rows)
				if err != nil {
					b.Fatal(err)
				}
				st.Register(tab)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := st.Get(names[i%len(names)]); !ok {
					b.Fatal("missing table")
				}
			}
		})
	}
}
