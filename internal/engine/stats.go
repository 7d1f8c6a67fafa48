package engine

import "nlexplain/internal/plan"

// Stats is the backward-compatible JSON snapshot served by
// wtq-server's GET /v1/stats. Since the observability redesign it is a
// shim rendered from the engine's metric registry (see metrics.go and
// internal/metric): the flat counter fields read the same registered
// metrics GET /metrics exposes, so the two surfaces can never drift.
//
// Deprecation notes for /v1/stats consumers:
//   - the former "store_tables" field duplicated "tables" (both read
//     the store catalog size); it has been collapsed into "tables".
//   - "ast_hits", "ast_misses", "ast_cache_size", "plan_hits",
//     "plan_misses" and "plan_cache_size" went with the AST and plan
//     caches they counted.
//   - new code should scrape GET /metrics, which adds the latency
//     histograms and per-endpoint HTTP series this flat shape cannot
//     carry.
type Stats struct {
	// Tables is the store catalog size (formerly duplicated as
	// "store_tables").
	Tables          int     `json:"tables"`
	ResultCache     int     `json:"result_cache_size"`
	AnswerCacheSize int     `json:"answer_cache_size"`
	ParseCacheSize  int     `json:"parse_cache_size"`
	ResultHits      uint64  `json:"result_hits"`
	ResultMisses    uint64  `json:"result_misses"`
	AnswerHits      uint64  `json:"answer_hits"`
	AnswerMisses    uint64  `json:"answer_misses"`
	ParseHits       uint64  `json:"parse_hits"`
	ParseMisses     uint64  `json:"parse_misses"`
	Executions      uint64  `json:"executions"`
	Answers         uint64  `json:"answers"`
	Errors          uint64  `json:"errors"`
	Timeouts        uint64  `json:"timeouts"`
	Sheds           uint64  `json:"sheds"`
	Batches         uint64  `json:"batches"`
	Parses          uint64  `json:"parses"`
	AvgLatencyMs    float64 `json:"avg_latency_ms"`
	TotalLatencyS   float64 `json:"total_latency_s"`
	// Zone-map skipping counters (process-global, like the executor's
	// worker pool): morsels proven row-free and skipped, and morsels
	// proven all-match and bulk-filled without per-row evaluation.
	MorselsSkipped  uint64 `json:"morsels_skipped"`
	MorselsShortcut uint64 `json:"morsels_shortcut"`
	// Store gauges: resident-byte estimate, derived-index evictions
	// under budget pressure and the monotonic generation counter of the
	// versioned table store.
	StoreBytes     int64  `json:"store_bytes"`
	StoreEvictions uint64 `json:"store_evictions"`
	StoreGen       uint64 `json:"store_generation"`
}

// Stats renders the compatibility snapshot from the metric registry
// and cache sizes. Counters may be mid-batch, which is fine for
// scraping.
func (e *Engine) Stats() Stats {
	st := e.store.Stats()
	m := e.met
	execs := m.executions.Count()
	answers := m.answersComputed.Count()
	// The explain and answer histograms record exactly the computations
	// the old cumulative latency counter summed, so the shim's totals
	// are preserved.
	nanos := m.explainLatency.Sum() + m.answerLatency.Sum()
	s := Stats{
		Tables:          st.Tables,
		ResultCache:     e.results.lru.len(),
		AnswerCacheSize: e.answers.lru.len(),
		ParseCacheSize:  e.parses.lru.len(),
		ResultHits:      e.results.hits.Count(),
		ResultMisses:    e.results.misses.Count(),
		AnswerHits:      e.answers.hits.Count(),
		AnswerMisses:    e.answers.misses.Count(),
		ParseHits:       e.parses.hits.Count(),
		ParseMisses:     e.parses.misses.Count(),
		Executions:      execs,
		Answers:         answers,
		Errors:          m.errors.Count(),
		Timeouts:        m.timeouts.Count(),
		Sheds:           m.sheds.Count(),
		Batches:         m.batches.Count(),
		Parses:          m.parses.Count(),
		TotalLatencyS:   float64(nanos) / 1e9,
		StoreBytes:      st.Bytes,
		StoreEvictions:  st.Evictions,
		StoreGen:        st.Gen,
	}
	s.MorselsSkipped, s.MorselsShortcut = plan.SkipStats()
	if computed := execs + answers; computed > 0 {
		s.AvgLatencyMs = float64(nanos) / float64(computed) / 1e6
	}
	return s
}
