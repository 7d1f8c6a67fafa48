// Package metric is the observability core of the serving stack: a
// hierarchical registry of four metric kinds (Counter, CounterFunc,
// GaugeFunc, Histogram) in the style of cockroach's util/metric. Each
// metric is registered under a dotted name ("engine.cache.result.hits",
// "store.bytes", "server.http.explain.requests"); per-subsystem
// sub-registries share one root namespace, so a duplicate or malformed
// name fails loudly at wiring time instead of silently shadowing a
// series.
//
// The registry renders to one surface, Prometheus text exposition
// (WritePrometheus): dotted names become underscore-separated series
// and histograms expand into cumulative _bucket/_sum/_count series.
// It is what wtq-server serves on GET /metrics and what the benchmark
// scrapes from its servers. Tests read one metric by its dotted name
// through Registry.Get.
//
// Recording is allocation-free and safe for concurrent use: a counter
// is a single atomic, a histogram observation is one atomic add into a
// fixed bucket array plus one into its sum, and the Func kinds are read
// only at scrape time, so hot-path instrumentation survives the
// repository's allocs/op gates (TestPlanWarmAllocs, TestEngineHitAllocs).
package metric

import "sync/atomic"

// Kind classifies a metric for exposition ("# TYPE").
type Kind int

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous value that can go up and down.
	KindGauge
	// KindHistogram is a log-linear-bucketed value distribution.
	KindHistogram
)

// String names the kind with the matching Prometheus type keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Metric is one registered value. Concrete types (Counter,
// CounterFunc, GaugeFunc, Histogram) are resolved by type switch in
// visitors.
type Metric interface {
	// Name is the full dotted name assigned at registration.
	Name() string
	// Help is the one-line description rendered as "# HELP".
	Help() string
	// Kind classifies the metric.
	Kind() Kind
}

// meta carries the registration-time identity shared by every metric
// type. The registry fills name on Register.
type meta struct {
	name string
	help string
	kind Kind
}

func (m *meta) Name() string { return m.name }
func (m *meta) Help() string { return m.help }
func (m *meta) Kind() Kind   { return m.kind }

// Counter is a monotonically increasing uint64. Inc and Add are one
// atomic add: allocation-free and safe on hot paths.
type Counter struct {
	meta
	v atomic.Uint64
}

// NewCounter builds an unregistered counter; register it with
// Registry.Register or create it pre-registered via Registry.Counter.
func NewCounter(help string) *Counter {
	return &Counter{meta: meta{help: help, kind: KindCounter}}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Count reads the current value.
func (c *Counter) Count() uint64 { return c.v.Load() }

// GaugeFunc is a gauge whose value is computed at scrape time — the
// natural fit for sizes owned elsewhere (LRU lengths, catalog counts,
// resident-byte estimates). The function must be safe for concurrent
// use and should be cheap: it runs on every scrape.
type GaugeFunc struct {
	meta
	fn func() int64
}

// NewGaugeFunc builds an unregistered functional gauge.
func NewGaugeFunc(help string, fn func() int64) *GaugeFunc {
	return &GaugeFunc{meta: meta{help: help, kind: KindGauge}, fn: fn}
}

// Value evaluates the gauge.
func (g *GaugeFunc) Value() int64 { return g.fn() }

// CounterFunc is a counter whose value is read at scrape time — for
// monotonic counts owned elsewhere (an engine executor's run and morsel
// counters, the store's WAL, checkpoint, eviction and recovery counts).
// The function must be safe for concurrent use, cheap, and
// monotonically non-decreasing.
type CounterFunc struct {
	meta
	fn func() uint64
}

// NewCounterFunc builds an unregistered functional counter.
func NewCounterFunc(help string, fn func() uint64) *CounterFunc {
	return &CounterFunc{meta: meta{help: help, kind: KindCounter}, fn: fn}
}

// Count evaluates the counter.
func (c *CounterFunc) Count() uint64 { return c.fn() }
