package workload

import "nlexplain/internal/engine"

// Report is the outcome tally of one workload run: what the tests
// assert on. It times nothing — benchmark/ is where speed is measured.
type Report struct {
	TotalOps int
	// Counts maps outcome class (ok, client_error, timeout, overloaded,
	// internal, transport) to op count; convenience totals below.
	Counts   map[string]int
	Errors   int
	Sheds    int
	Timeouts int
	Cached   int
	// PerKind is Counts split by op kind.
	PerKind map[string]map[string]int

	// CacheHitRatio is hits/(hits+misses) over the engine's result,
	// answer and parse caches, deltas across the run.
	CacheHitRatio float64
	// Engine is the target engine's post-run counter snapshot — the
	// exact schema wtq-server serves on GET /v1/stats.
	Engine *engine.Stats
}

// record books one executed op.
func (r *Report) record(kind OpKind, out Outcome) {
	r.TotalOps++
	r.Counts[out.Class]++
	switch out.Class {
	case ClassClientError, ClassInternal, ClassTransport:
		r.Errors++
	case ClassOverloaded:
		r.Sheds++
	case ClassTimeout:
		r.Timeouts++
	}
	if out.Cached {
		r.Cached++
	}
	byClass := r.PerKind[string(kind)]
	if byClass == nil {
		byClass = make(map[string]int)
		r.PerKind[string(kind)] = byClass
	}
	byClass[out.Class]++
}

// attachEngineStats records the post-run engine snapshot and derives
// the run's cache hit ratio from before/after counter deltas.
func (r *Report) attachEngineStats(before, after engine.Stats) {
	r.Engine = &after
	hits := float64((after.ResultHits - before.ResultHits) +
		(after.AnswerHits - before.AnswerHits) +
		(after.ParseHits - before.ParseHits))
	misses := float64((after.ResultMisses - before.ResultMisses) +
		(after.AnswerMisses - before.AnswerMisses) +
		(after.ParseMisses - before.ParseMisses))
	if hits+misses > 0 {
		r.CacheHitRatio = hits / (hits + misses)
	}
}
