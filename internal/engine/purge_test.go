package engine

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
)

// versionEntries counts the finished values each of the engine's three
// caches holds under one table version.
func versionEntries(e *Engine, version string) [3]int {
	return [3]int{entriesOf(e.results, version), entriesOf(e.answers, version), entriesOf(e.parses, version)}
}

func entriesOf[T any](c *cached[T], version string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for key := range c.lru.items {
		if key.version == version {
			n++
		}
	}
	return n
}

// TestStorePurgesDisplacedVersionUnderChurn pins the engine's
// invalidation contract under concurrent mutation: four goroutines each
// churn their own table through register, explain / answer / parse,
// append, identical re-registration, changed re-registration and drop.
// When each mutation returns, no cache holds an entry keyed by the
// version it displaced, and an identical re-registration keeps the
// entries it found. The caches are sized so that no goroutine's
// entries are evicted by another's.
func TestStorePurgesDisplacedVersionUnderChurn(t *testing.T) {
	e := New(Options{CacheSize: 4096, Workers: 4})
	ctx := context.Background()
	cols := []string{"Year", "City", "Country", "Nations"}
	row := func(i int) []string {
		return []string{strconv.Itoa(1896 + 4*i), "City" + strconv.Itoa(i%3), "Greece" + strconv.Itoa(i%2), strconv.Itoa(10 + i)}
	}
	const iters = 8
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("churn-%d", g)
			warm := func(version string) bool {
				t.Helper()
				if _, err := e.Explain(ctx, name, "count(Record)"); err != nil {
					t.Errorf("%s: explain: %v", name, err)
					return false
				}
				if _, _, err := e.ExplainAnswer(ctx, name, "max(R[Nations].Record)"); err != nil {
					t.Errorf("%s: answer: %v", name, err)
					return false
				}
				if _, err := e.ParseQuestion(ctx, name, "which year did greece host", 0); err != nil {
					t.Errorf("%s: parse: %v", name, err)
					return false
				}
				if n := versionEntries(e, version); n != [3]int{1, 1, 1} {
					t.Errorf("%s: warm caches hold %v entries of %s, want one each", name, n, version)
					return false
				}
				return true
			}
			purged := func(step, version string) bool {
				t.Helper()
				if n := versionEntries(e, version); n != [3]int{} {
					t.Errorf("%s: after %s, caches hold %v entries of displaced version %s", name, step, n, version)
					return false
				}
				return true
			}
			for i := range iters {
				rows := [][]string{row(i), row(i + 1), row(i + 2)}
				reg, err := e.RegisterRaw(name, cols, rows)
				if err != nil || !warm(reg.Version) {
					t.Errorf("%s: register: %v", name, err)
					return
				}
				extra := []string{"2020", "Tokyo", "Japan", strconv.Itoa(200 + i)}
				app, err := e.AppendRows(name, [][]string{extra})
				if err != nil || !purged("append", reg.Version) || !warm(app.Version) {
					t.Errorf("%s: append: %v", name, err)
					return
				}
				same, err := e.RegisterRaw(name, cols, append(rows, extra))
				if err != nil {
					t.Errorf("%s: identical re-register: %v", name, err)
					return
				}
				if same.Version != app.Version {
					t.Errorf("%s: identical re-register changed the version %s -> %s", name, app.Version, same.Version)
					return
				}
				if n := versionEntries(e, same.Version); n != [3]int{1, 1, 1} {
					t.Errorf("%s: identical re-register left %v entries of %s, want one each", name, n, same.Version)
					return
				}
				changed, err := e.RegisterRaw(name, cols, rows[:2])
				if err != nil || !purged("changed re-register", same.Version) || !warm(changed.Version) {
					t.Errorf("%s: changed re-register: %v", name, err)
					return
				}
				if _, ok, err := e.DropTable(name); err != nil || !ok || !purged("drop", changed.Version) {
					t.Errorf("%s: drop: ok %v, %v", name, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
