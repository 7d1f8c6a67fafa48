// Package metric is the observability core of the serving stack: a
// hierarchical registry of typed metrics (Counter, Gauge, GaugeFunc,
// Rate, Histogram) in the style of cockroach's util/metric. Each
// metric is registered under a dotted name ("engine.cache.result.hits",
// "store.bytes", "server.http.explain.requests"); per-subsystem
// sub-registries share one root namespace, so a duplicate or malformed
// name fails loudly at wiring time instead of silently shadowing a
// series.
//
// The registry renders to two surfaces from the same values:
//
//   - Prometheus text exposition (WritePrometheus), where dotted names
//     become underscore-separated series and histograms expand into
//     cumulative _bucket/_sum/_count series — what wtq-server serves on
//     GET /metrics and the benchmark scrapes from its servers;
//   - a Snapshot (map keyed by dotted name), which tests read a
//     counter out of by its canonical name.
//
// Recording is allocation-free and safe for concurrent use: counters
// and gauges are single atomics, histogram observations are one atomic
// add into a fixed bucket array, so hot-path instrumentation survives
// the repository's allocs/op gates (TestPlanWarmAllocs,
// TestEngineHitAllocs).
package metric

import (
	"sync/atomic"
	"time"
)

// Kind classifies a metric for exposition ("# TYPE") and snapshots.
type Kind int

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous value that can go up and down.
	KindGauge
	// KindRate is a cumulative count plus a derived per-second rate.
	KindRate
	// KindHistogram is a log-linear-bucketed value distribution.
	KindHistogram
)

// String names the kind with the matching Prometheus type keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter, KindRate:
		// Rates expose their cumulative count; consumers derive the
		// windowed rate (PromQL rate()) from it.
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Metric is one registered value. Concrete types (Counter, Gauge,
// GaugeFunc, Rate, Histogram) are resolved by type switch in visitors.
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

// Gauge is an instantaneous int64 value.
type Gauge struct {
	meta
	v atomic.Int64
}

// NewGauge builds an unregistered gauge.
func NewGauge(help string) *Gauge {
	return &Gauge{meta: meta{help: help, kind: KindGauge}}
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

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
// monotonic counts owned elsewhere (the plan executor's process-global
// morsel and run counters). The function must be safe for concurrent
// use, cheap, and monotonically non-decreasing.
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

// Rate is a cumulative event count plus a derived mean per-second rate
// since the metric was created. Prometheus consumers should ignore
// PerSec and apply rate() to the exposed cumulative count; PerSec
// exists for the JSON snapshot, where no scrape history is available.
type Rate struct {
	meta
	v     atomic.Uint64
	start time.Time
}

// NewRate builds an unregistered rate.
func NewRate(help string) *Rate {
	return &Rate{meta: meta{help: help, kind: KindRate}, start: time.Now()}
}

// Mark books one event.
func (r *Rate) Mark() { r.v.Add(1) }

// Add books n events.
func (r *Rate) Add(n uint64) { r.v.Add(n) }

// Count reads the cumulative event count.
func (r *Rate) Count() uint64 { return r.v.Load() }

// PerSec is the mean event rate since the metric was created.
func (r *Rate) PerSec() float64 {
	elapsed := time.Since(r.start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(r.v.Load()) / elapsed
}
