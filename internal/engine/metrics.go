package engine

import (
	"runtime"

	"nlexplain/internal/metric"
)

// metrics is the engine's registry-backed instrumentation. Every field
// is registered under the "engine." namespace of the engine's root
// registry (the store's gauges land under "store."); wtq-server adds
// its "server.http." series to the same root and serves the whole tree
// on GET /metrics. Recording any of these is allocation-free. The
// cache.<name>.{hits,misses,size} series belong to the caches
// themselves (cached.go).
type metrics struct {
	root *metric.Registry

	executions      *metric.Counter
	answersComputed *metric.Counter
	errors          *metric.Counter
	timeouts        *metric.Counter
	sheds           *metric.Counter
	batches         *metric.Counter
	parses          *metric.Counter

	explainLatency *metric.Histogram // uncached explain pipeline computations
	answerLatency  *metric.Histogram // uncached answer-only computations
	parseLatency   *metric.Histogram // uncached semantic-parse candidate generations
	batchLatency   *metric.Histogram // whole ExplainBatch calls, wall clock
	admitWait      *metric.Histogram // an admitted leader's wait for a worker slot
}

// initMetrics wires the engine's namespace into a fresh root registry
// and returns the "engine." sub-registry, on which the three caches
// register their own series.
func (e *Engine) initMetrics() *metric.Registry {
	root := metric.NewRegistry()
	r := root.Sub("engine")
	e.met = &metrics{
		root: root,

		executions:      r.Counter("executions", "uncached full explanation pipeline computations"),
		answersComputed: r.Counter("answers", "uncached answer-only computations"),
		errors:          r.Counter("errors", "failed requests (bad query, unknown table, contained panic)"),
		timeouts:        r.Counter("timeouts", "requests killed by deadline expiry"),
		sheds:           r.Counter("sheds", "requests shed by the full pending set (MaxPending)"),
		batches:         r.Counter("batches", "ExplainBatch calls"),
		parses:          r.Counter("parses", "ParseQuestion calls"),

		explainLatency: r.LatencyHistogram("explain.latency.seconds", "uncached explain pipeline compute latency"),
		answerLatency:  r.LatencyHistogram("answer.latency.seconds", "uncached answer-only compute latency"),
		parseLatency:   r.LatencyHistogram("parse.latency.seconds", "uncached candidate-generation latency"),
		batchLatency:   r.LatencyHistogram("batch.latency.seconds", "ExplainBatch wall-clock latency"),
		admitWait:      r.LatencyHistogram("admission.wait.seconds", "admitted computations' wait for a worker slot"),
	}
	// Morsel-parallel executor series: the engine's own executor, which
	// every plan execution it runs counts in; its morsel hook feeds the
	// latency histogram.
	x := &e.exec
	r.GaugeFunc("exec.workers", "morsel-parallel executor per-query worker cap",
		func() int64 { return int64(x.Workers) })
	r.GaugeFunc("gomaxprocs", "runtime GOMAXPROCS",
		func() int64 { return int64(runtime.GOMAXPROCS(0)) })
	r.CounterFunc("exec.parallel.runs", "plan executions that used the morsel-parallel path", x.ParallelRuns.Load)
	r.CounterFunc("exec.serial.runs", "plan executions that stayed on the serial path", x.SerialRuns.Load)
	r.CounterFunc("exec.parallel.morsels", "morsels processed by the parallel executor", x.Morsels.Load)
	r.CounterFunc("exec.morsels.skipped", "morsels proven row-free by zone maps and skipped", x.Skipped.Load)
	r.CounterFunc("exec.morsels.shortcut", "morsels proven all-match by zone maps and bulk-filled", x.Shortcut.Load)
	x.Morsel = r.LatencyHistogram("exec.morsel.latency.seconds", "per-morsel execution latency in the parallel path").RecordDuration

	e.store.RegisterMetrics(root.Sub("store"))
	return r
}

// Metrics exposes the engine's root metric registry — the tree behind
// GET /metrics. Embedders (wtq-server) register additional subsystems
// on sub-registries of it.
func (e *Engine) Metrics() *metric.Registry { return e.met.root }
