package metric

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCounterGaugeRate reads back the scalar kinds: a Counter, a
// GaugeFunc and a CounterFunc, the cumulative count a scraper derives
// a rate from.
func TestCounterGaugeRate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs", "requests")
	c.Inc()
	c.Add(4)
	if got := c.Count(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	var backing int64 = 42
	gf := r.GaugeFunc("size", "backing size", func() int64 { return backing })
	if got := gf.Value(); got != 42 {
		t.Errorf("gauge func = %d, want 42", got)
	}
	backing = -3
	if got := gf.Value(); got != -3 {
		t.Errorf("gauge func after change = %d, want -3", got)
	}
	var events uint64 = 10
	cf := r.CounterFunc("events", "events seen", func() uint64 { return events })
	if got := cf.Count(); got != 10 {
		t.Errorf("counter func = %d, want 10", got)
	}
	for name, want := range map[string]Kind{"reqs": KindCounter, "size": KindGauge, "events": KindCounter} {
		if m, ok := r.Get(name); !ok || m.Kind() != want {
			t.Errorf("Get(%s) = %v, %v; want kind %v", name, m, ok, want)
		}
	}
}

func TestSubRegistriesShareNamespace(t *testing.T) {
	root := NewRegistry()
	eng := root.Sub("engine")
	cache := eng.Sub("cache")
	cache.Counter("hits", "h")
	root.Sub("engine.cache").Counter("misses", "m")
	want := []string{"engine.cache.hits", "engine.cache.misses"}
	var got []string
	root.Visit(func(m Metric) { got = append(got, m.Name()) })
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("names = %v, want %v", got, want)
	}
	if m, ok := root.Get("engine.cache.hits"); !ok || m.Name() != "engine.cache.hits" {
		t.Fatalf("Get(engine.cache.hits) = %v, %v", m, ok)
	}
	// Duplicate registration across different Sub handles of the same
	// namespace must panic.
	mustPanic(t, "duplicate", func() { eng.Counter("cache.hits", "dup") })
}

func TestInvalidNamesPanic(t *testing.T) {
	bad := []string{"", ".", "a.", ".a", "a..b", "A", "has-dash", "has space", "caféx"}
	for _, name := range bad {
		mustPanic(t, name, func() { NewRegistry().Counter(name, "h") })
	}
	ok := []string{"a", "a0", "a_b", "a.b", "engine.cache.plan.hits", "x9.y_1"}
	for _, name := range ok {
		NewRegistry().Counter(name, "h") // must not panic
	}
}

// TestConcurrentRecordAndScrape hammers one registry from 8 goroutines
// that register fresh metrics and record on shared ones while the test
// goroutine continuously renders the Prometheus exposition and visits
// the tree.
// Run under -race this is the package's thread-safety gate.
func TestConcurrentRecordAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("shared.count", "h")
	h := r.LatencyHistogram("shared.latency.seconds", "h")
	var depth atomic.Int64
	r.GaugeFunc("shared.depth", "h", depth.Load)

	const workers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sub := r.Sub("w" + string(rune('a'+id)))
			own := sub.Counter("ops", "h")
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				own.Inc()
				depth.Add(1)
				h.RecordDuration(time.Duration(j%1000) * time.Microsecond)
				depth.Add(-1)
			}
		}(i)
	}
	deadline := time.After(200 * time.Millisecond)
	for done := false; !done; {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		r.Visit(func(m Metric) { _ = m.Name() })
		if _, ok := r.Get("shared.depth"); !ok {
			t.Fatal("shared.depth not registered")
		}
		select {
		case <-deadline:
			done = true
		default:
		}
	}
	close(stop)
	wg.Wait()
	if c.Count() == 0 || h.Snapshot().Count() == 0 {
		t.Fatalf("no recordings landed: count=%d hist=%d", c.Count(), h.Snapshot().Count())
	}
	if got := h.Snapshot().Count(); got != c.Count() {
		t.Fatalf("count mismatch: counter=%d hist=%d", c.Count(), got)
	}
}

func mustPanic(t *testing.T, label string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", label)
		}
	}()
	fn()
}
