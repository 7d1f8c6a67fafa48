// Package engine is the reusable explanation pipeline behind the
// wtq-server service: it unifies parse → typecheck → execute →
// provenance → highlight → utterance behind one Engine type with a
// named-table registry, three result-level LRU caches (explanations,
// answers, candidate pools, keyed on table version + request text)
// behind one cached-call path, worker slots bounding the computations
// callers run on it, per-query timeouts, and scrape-ready counters.
//
// The pipeline itself reproduces the deployment flow of Section 6.3 of
// "Explaining Queries over Web Tables to Non-Experts" (ICDE 2019); the
// engine adds the serving machinery that lets one process answer many
// concurrent explanation requests over many registered tables.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nlexplain/internal/dcs"
	"nlexplain/internal/export"
	"nlexplain/internal/plan"
	"nlexplain/internal/semparse"
	"nlexplain/internal/store"
	"nlexplain/internal/table"
	"nlexplain/internal/utterance"
	"nlexplain/internal/vfs"
)

// Options configures an Engine. The zero value selects sensible
// defaults for every field.
type Options struct {
	// CacheSize caps each LRU cache (explanations, answers, candidate
	// pools). Default 1024 entries.
	CacheSize int
	// Workers bounds every running uncached computation (explain,
	// answer, candidate generation; single or of a batch) and a batch's
	// fan-out: its caller plus Workers - 1 goroutines. Default GOMAXPROCS.
	Workers int
	// QueryTimeout is the per-query deadline applied when a request
	// carries none of its own; request-supplied timeouts are clamped
	// to it, so it is the operator's hard per-query cap. Default 10s.
	QueryTimeout time.Duration
	// MaxPending bounds the uncached computations (a miss's leader, a
	// parse deeper than the cache keeps) running plus waiting for a
	// worker slot to start. Beyond it new work is shed with
	// ErrOverloaded instead of letting callers wait without limit.
	// Default 16x Workers.
	MaxPending int
	// StoreByteBudget bounds the table store's resident-byte estimate;
	// over it, cold tables' derived indexes are evicted (base data
	// never is). It is checked at each install, and at each table
	// acquisition that follows an index or zone-map build
	// (store.Options.ByteBudget). 0 means unlimited.
	StoreByteBudget int64
	// ExecWorkers caps the morsel-parallel workers of each plan execution
	// this engine runs (see internal/plan); other engines keep their own.
	// Default GOMAXPROCS; 1 forces serial execution.
	ExecWorkers int
	// DataDir enables durable storage: the table store writes every
	// catalog mutation to a write-ahead log under this directory and
	// compacts it into columnar segment checkpoints, so registered
	// tables survive restarts (Open recovers them). Empty means
	// in-memory only.
	DataDir string
	// CheckpointInterval is the periodic checkpoint cadence (0 = store
	// default of 30s; negative disables the timer). Ignored without
	// DataDir.
	CheckpointInterval time.Duration
	// CheckpointBytes triggers a checkpoint when the active WAL grows
	// past it (0 = store default of 8MiB; negative disables). Ignored
	// without DataDir.
	CheckpointBytes int64
	// FS is the filesystem the durability layer performs all I/O
	// through. nil means the real OS (vfs.OS); tests and chaos runs
	// substitute a fault injector. Ignored without DataDir.
	FS vfs.FS
	// RecoveryDelay is the first wait between the store's degraded-mode
	// recovery attempts, doubling up to 100x (0 = store default of
	// 50ms). Ignored without DataDir.
	RecoveryDelay time.Duration
}

func (o Options) withDefaults() Options {
	if o.CacheSize <= 0 {
		o.CacheSize = 1024
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueryTimeout <= 0 {
		o.QueryTimeout = 10 * time.Second
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 16 * o.Workers
	}
	if o.ExecWorkers <= 0 {
		o.ExecWorkers = runtime.GOMAXPROCS(0)
	}
	return o
}

// ErrUnknownTable reports a request against a table name that is not
// in the registry; match it with errors.Is.
var ErrUnknownTable = errors.New("unknown table")

// ErrInternal marks a server-side pipeline failure (a contained
// panic), as opposed to a client mistake; match it with errors.Is to
// map it to a 5xx status.
var ErrInternal = errors.New("internal pipeline failure")

// ErrOverloaded reports that the engine shed a request because
// MaxPending uncached computations already run or wait for a worker
// slot; clients should back off and retry. Match it with errors.Is.
var ErrOverloaded = errors.New("engine overloaded")

// ErrUnavailable reports a mutation rejected because the durable store
// cannot persist it — a durability fault, or degraded read-only mode
// while recovery retries in the background. Reads keep serving; the
// client should back off and retry the mutation (HTTP 503 +
// Retry-After). Match it with errors.Is.
var ErrUnavailable = errors.New("store unavailable, retry later")

// Engine is the concurrent explanation pipeline. It is safe for
// concurrent use; cached *Explanation values are shared between callers
// and must be treated as immutable.
//
// Table state lives in the versioned store (internal/store): every
// request pins an immutable snapshot, so registrations, appends and
// drops never tear an execution in flight, and each mutation purges
// the version it displaced from the three caches before it returns.
type Engine struct {
	opts  Options
	store *store.Store

	// One cache per kind of result, each keyed on table version +
	// request text; see cached.go.
	results *cached[*Explanation]
	answers *cached[*Answer]
	parses  *cached[parsedPool] // the ranks a default parse response shows; a deeper one is not cached

	sem     chan struct{} // worker slots: bounds running pipeline computations
	pending atomic.Int64  // admitted computations, running + waiting for a slot; MaxPending bounds it

	// exec is the executor every plan execution of the engine runs in:
	// explanations, answers, their samples, and candidate generation
	// by parser (the one the engine ranks with).
	exec   plan.Exec
	parser *semparse.Parser

	// met is the registry-backed instrumentation ("engine." and
	// "store." namespaces); see metrics.go and internal/metric.
	met *metrics
}

// New builds an in-memory Engine with the given options (zero value =
// defaults). It panics if opts.DataDir is set and recovery fails; use
// Open to handle durable startup errors.
func New(opts Options) *Engine {
	e, err := Open(opts)
	if err != nil {
		panic(fmt.Sprintf("engine: %v", err))
	}
	return e
}

// Open builds an Engine. With Options.DataDir set, the table store
// opens its durability layer first — loading the latest checkpoint,
// replaying the WAL tail and resuming at the recovered generation —
// so the engine's caches build over the recovered catalog. The error is non-nil only for
// durable startup failures (recovery refuses corrupt logs/segments).
func Open(opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	sopts := store.Options{ByteBudget: opts.StoreByteBudget}
	var st *store.Store
	if opts.DataDir != "" {
		var err error
		st, err = store.Open(sopts, store.DurableOptions{
			Dir:                opts.DataDir,
			CheckpointInterval: opts.CheckpointInterval,
			CheckpointBytes:    opts.CheckpointBytes,
			FS:                 opts.FS,
			RecoveryDelay:      opts.RecoveryDelay,
		})
		if err != nil {
			return nil, err
		}
	} else {
		st = store.New(sopts)
	}
	e := &Engine{
		opts:   opts,
		store:  st,
		sem:    make(chan struct{}, opts.Workers),
		exec:   plan.Exec{Workers: opts.ExecWorkers},
		parser: semparse.NewUncachedParser(),
	}
	e.parser.Exec = &e.exec
	r := e.initMetrics()
	e.results = newCached(e, r, "result", "explanation result", e.compute)
	e.answers = newCached(e, r, "answer", "answer-only result", e.computeAnswer)
	e.parses = newCached(e, r, "parse", "semantic-parse candidate", e.computeParse)
	return e, nil
}

// Close flushes and closes the store's durability layer: a final
// checkpoint compacts the WAL, then the log is closed. Mutations
// after Close fail; queries keep working against the resident
// catalog. In-memory engines close as a no-op.
func (e *Engine) Close() error { return e.store.Close() }

// Checkpoint forces a durability checkpoint now (no-op in-memory).
func (e *Engine) Checkpoint() error { return e.store.Checkpoint() }

// Store exposes the engine's versioned table store (direct snapshot
// access for embedders).
func (e *Engine) Store() *store.Store { return e.store }

// TableInfo describes one registered table.
type TableInfo struct {
	Name    string `json:"name"`
	Version string `json:"version"`
	// Generation is the store's monotonic install counter: unique per
	// mutation even when content (and therefore Version) repeats.
	Generation uint64 `json:"generation"`
	Rows       int    `json:"rows"`
	Cols       int    `json:"cols"`
}

func infoOf(s *store.Snapshot) TableInfo {
	t := s.Table()
	return TableInfo{Name: t.Name(), Version: s.Version(), Generation: s.Gen(), Rows: t.NumRows(), Cols: t.NumCols()}
}

// RegisterTable adds (or replaces) a pre-built table under its own
// name and returns its registry info. Replacing a name synchronously
// purges the displaced version's entries from every cache. On a
// durable engine the registration is fsync-durable before it returns;
// a failure to persist fails the mutation (nothing installed) with an
// ErrUnavailable-classed error.
func (e *Engine) RegisterTable(t *table.Table) (TableInfo, error) {
	snap, err := e.store.Register(t)
	if err != nil {
		return TableInfo{}, e.mapStoreErr(err)
	}
	e.purge(snap.Displaced(), snap.Version())
	return infoOf(snap), nil
}

// purge is version-scoped invalidation: it drops every cached result
// of displaced, the version a mutation replaced or dropped, so by the
// time the mutation returns no cache can serve it. (A computation
// already in flight against the old snapshot may still publish under
// the old version afterwards; such entries are unreachable — lookups
// key on the current version — and age out of the LRU.) Re-registering
// identical content keeps its version, so when displaced is current,
// the still-valid entries stay.
func (e *Engine) purge(displaced, current string) {
	if displaced == "" || displaced == current {
		return
	}
	e.results.purgeVersion(displaced)
	e.answers.purgeVersion(displaced)
	e.parses.purgeVersion(displaced)
}

// RegisterRaw builds a table from a header and raw rows (cells are
// typed automatically) and registers it.
func (e *Engine) RegisterRaw(name string, columns []string, rows [][]string) (TableInfo, error) {
	t, err := table.New(name, columns, rows)
	if err != nil {
		return TableInfo{}, err
	}
	return e.RegisterTable(t)
}

// mapStoreErr classifies store mutation failures for transport: a
// durability failure — including the degraded-mode fail-fast — means
// the store cannot accept writes right now but reads still serve, so
// it is wrapped as ErrUnavailable (HTTP 503 + Retry-After) while
// staying matchable as store.ErrDurability / store.ErrDegraded.
func (e *Engine) mapStoreErr(err error) error {
	if errors.Is(err, store.ErrDurability) {
		e.met.errors.Inc()
		return fmt.Errorf("%w: %w", ErrUnavailable, err)
	}
	return err
}

// Health describes the engine's serving state: "ok", or "degraded"
// with the durability fault that started the episode while the store
// is read-only and recovery retries in the background.
type Health struct {
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// Health reports the engine's current serving state.
func (e *Engine) Health() Health {
	if degraded, reason := e.store.Degraded(); degraded {
		return Health{Status: "degraded", Reason: reason}
	}
	return Health{Status: "ok"}
}

// AppendRows installs a copy-on-write successor of a registered table
// with rows appended, bumping the generation and synchronously purging
// the old version's cache entries. Queries in flight keep the snapshot
// they pinned.
func (e *Engine) AppendRows(name string, rows [][]string) (TableInfo, error) {
	snap, err := e.store.Append(name, rows)
	if err != nil {
		if errors.Is(err, store.ErrUnknownTable) {
			e.met.errors.Inc()
			return TableInfo{}, fmt.Errorf("%w: %q", ErrUnknownTable, name)
		}
		return TableInfo{}, e.mapStoreErr(err)
	}
	e.purge(snap.Displaced(), snap.Version())
	return infoOf(snap), nil
}

// DropTable removes a table from the store, returning its final
// registry info and whether it existed. Its cache entries are purged
// synchronously; snapshots already pinned by in-flight queries stay
// readable. On a durable engine the drop is fsync-durable before it
// returns.
func (e *Engine) DropTable(name string) (TableInfo, bool, error) {
	snap, ok, err := e.store.Drop(name)
	if err != nil {
		return TableInfo{}, false, e.mapStoreErr(err)
	}
	if !ok {
		return TableInfo{}, false, nil
	}
	e.purge(snap.Version(), "")
	return infoOf(snap), true, nil
}

// Table returns a registered table and its version.
func (e *Engine) Table(name string) (*table.Table, string, bool) {
	snap, ok := e.store.Get(name)
	if !ok {
		return nil, "", false
	}
	return snap.Table(), snap.Version(), true
}

// Tables lists the registry, in unspecified order.
func (e *Engine) Tables() []TableInfo {
	snaps := e.store.Snapshots()
	out := make([]TableInfo, 0, len(snaps))
	for _, s := range snaps {
		out = append(out, infoOf(s))
	}
	return out
}

// TableDetail is the full table resource on the wire: TableInfo plus
// the schema and the store's resident-byte estimate, served by
// GET /v1/tables/{name} and per entry by GET /v1/tables.
type TableDetail struct {
	TableInfo
	// Columns is the table's header, in column order.
	Columns []string `json:"columns"`
	// Bytes is the table's resident footprint estimate: base data plus
	// currently built derived indexes.
	Bytes int64 `json:"bytes"`
}

func detailOf(s *store.Snapshot) TableDetail {
	t := s.Table()
	return TableDetail{
		TableInfo: infoOf(s),
		Columns:   t.Columns(),
		Bytes:     t.BaseBytes() + t.DerivedBytes(),
	}
}

// TableDetail returns the full resource view of one registered table.
func (e *Engine) TableDetail(name string) (TableDetail, bool) {
	snap, ok := e.store.Get(name)
	if !ok {
		return TableDetail{}, false
	}
	return detailOf(snap), true
}

// TableDetails lists the full resource view of every registered table,
// sorted by name so list responses are stable.
func (e *Engine) TableDetails() []TableDetail {
	snaps := e.store.Snapshots()
	out := make([]TableDetail, 0, len(snaps))
	for _, s := range snaps {
		out = append(out, detailOf(s))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Explanation is the full pipeline output for one query on one
// registered table, ready for JSON encoding: the one explanation
// document export builds, with Version set from the snapshot it read.
// Its grid is a view of that snapshot's table, so its Cells field is
// nil: the encoders write the cells, and Table.WithCells returns them.
// Cached instances are shared across requests: treat as immutable.
type Explanation = export.ExplanationJSON

// prepare is the front of every uncached query computation: parse,
// compile against the pinned snapshot into the engine's executor, and
// the pprof labels execution runs under. Nothing is cached on the way:
// a plan is bound to the same (version, query) pair the result and
// answer caches key on, so a request that gets here has already missed
// the only cache that could have saved this work.
func (e *Engine) prepare(snap *store.Snapshot, tableName, query string) (*dcs.Compiled, pprof.LabelSet, error) {
	q, err := dcs.Parse(query)
	if err != nil {
		return nil, pprof.LabelSet{}, fmt.Errorf("parsing %q: %w", dcs.Clip(query), err)
	}
	c, err := dcs.Compile(q, snap.Table())
	if err != nil {
		return nil, pprof.LabelSet{}, fmt.Errorf("compiling %s on %s: %w", dcs.Clip(q.String()), tableName, err)
	}
	c.Exec = &e.exec
	return c, pprof.Labels(
		"query_family", plan.FamilyOf(c.Root),
		"table", tableName,
		"parallel", strconv.FormatBool(e.exec.Forks(snap.Table().NumRows())),
	), nil
}

// compute is the uncached explain pipeline: prepare, then export's
// build (execute, provenance+highlight, sample, utter, translate,
// grid, levels), stamped with the snapshot's version. The grid is a
// view of the snapshot's table: the cached document keeps no cells.
// The whole of it reads the one pinned snapshot. Morsel workers inherit
// the pprof labels (goroutines inherit their creator's), so -pprof
// profiles attribute CPU to query families even for fanned-out scans.
func (e *Engine) compute(ctx context.Context, snap *store.Snapshot, tableName, query string) (*Explanation, error) {
	start := time.Now()
	c, labels, err := e.prepare(snap, tableName, query)
	if err != nil {
		return nil, err
	}
	var ex *Explanation
	pprof.Do(ctx, labels, func(ctx context.Context) {
		// Threshold 0: grids over provenance.SampleThreshold rows switch to
		// Section 5.3 record sampling.
		ex, _, err = export.BuildView(ctx, c, snap.Table(), 0)
	})
	if err != nil {
		return nil, fmt.Errorf("explaining %s on %s: %w", dcs.Clip(c.Expr.String()), tableName, err)
	}
	ex.Version = snap.Version()
	e.met.executions.Inc()
	e.met.explainLatency.RecordDuration(time.Since(start))
	return ex, nil
}

// isCtxErr reports whether err is a context cancellation or deadline
// expiry (possibly wrapped).
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// withDefaultDeadline bounds the caller's context by the engine's
// QueryTimeout: contexts with no deadline get one, and contexts with a
// deadline beyond the cap are clamped to it, making QueryTimeout the
// hard per-query bound its documentation promises.
func (e *Engine) withDefaultDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	hardCap := time.Now().Add(e.opts.QueryTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(hardCap) {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, hardCap)
}

// countFailure books a failed request once: deadline expiry as a timeout,
// a client's cancellation not at all, anything else as an error.
func (e *Engine) countFailure(err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		e.met.timeouts.Inc()
	case errors.Is(err, context.Canceled):
	default:
		e.met.errors.Inc()
	}
}

// Explain runs the full pipeline for one query over a registered table,
// honoring ctx for cancellation and deadlines.
func (e *Engine) Explain(ctx context.Context, tableName, query string) (*Explanation, error) {
	ex, _, err := e.ExplainCached(ctx, tableName, query)
	return ex, err
}

// ExplainCached is Explain plus whether the result was served from the
// explanation cache.
func (e *Engine) ExplainCached(ctx context.Context, tableName, query string) (*Explanation, bool, error) {
	ex, _, hit, err := e.results.call(ctx, tableName, query)
	return ex, hit, err
}

// Answer is the answer-only pipeline output for one query on one
// registered table: the denotation string without witness cells,
// highlights or an utterance. Cached instances are shared across
// requests: treat as immutable.
type Answer struct {
	Table   string `json:"table"`
	Version string `json:"version"`
	Query   string `json:"query"`
	Result  string `json:"result"`
}

// ExplainAnswer runs the answer-only fast path for one query over a
// registered table: execution under an inactive tracer, skipping every
// witness-cell, provenance and utterance computation. It takes Explain's
// call path (worker slots and MaxPending shared, ErrOverloaded applies)
// with a cache of its own; the second return reports a hit in it.
func (e *Engine) ExplainAnswer(ctx context.Context, tableName, query string) (*Answer, bool, error) {
	ans, _, hit, err := e.answers.call(ctx, tableName, query)
	return ans, hit, err
}

// computeAnswer is the uncached answer-only path: prepare, then
// execution with witness capture off under the leader's request ctx.
func (e *Engine) computeAnswer(ctx context.Context, snap *store.Snapshot, tableName, query string) (*Answer, error) {
	start := time.Now()
	c, labels, err := e.prepare(snap, tableName, query)
	if err != nil {
		return nil, err
	}
	var res *dcs.Result
	pprof.Do(ctx, labels, func(ctx context.Context) {
		res, err = c.ExecuteWithCtx(ctx, snap.Table(), plan.Noop{})
	})
	if err != nil {
		return nil, fmt.Errorf("answering %s on %s: %w", dcs.Clip(c.Expr.String()), tableName, err)
	}
	ans := &Answer{Table: tableName, Version: snap.Version(), Query: query, Result: res.String()}
	e.met.answersComputed.Inc()
	e.met.answerLatency.RecordDuration(time.Since(start))
	return ans, nil
}

// Request is one query of a batch.
type Request struct {
	Table string `json:"table"`
	Query string `json:"query"`
	// Timeout overrides the engine's per-query deadline when positive;
	// it is clamped to Options.QueryTimeout, the operator's hard cap.
	Timeout time.Duration `json:"-"`
}

// BatchResult is the outcome of one batch request, in request order.
type BatchResult struct {
	Explanation *Explanation `json:"explanation,omitempty"`
	Cached      bool         `json:"cached"`
	Err         error        `json:"-"`
}

// ExplainBatch executes every request, each under its own per-query
// deadline, and returns results in request order. The caller and up to
// Workers - 1 goroutines beside it claim requests one at a time, so a
// one-request batch starts no goroutine and a huge one Workers - 1.
// Each computation takes a single Explain's road: the worker slots and
// pending bound shared with all other traffic. A canceled ctx fails
// every query that has not completed, including those in flight.
func (e *Engine) ExplainBatch(ctx context.Context, reqs []Request) []BatchResult {
	e.met.batches.Inc()
	start := time.Now()
	defer func() { e.met.batchLatency.RecordDuration(time.Since(start)) }()
	out := make([]BatchResult, len(reqs))
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
			out[i] = e.runBatchRequest(ctx, reqs[i])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(e.opts.Workers, len(reqs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return out
}

// runBatchRequest executes one batch entry under its per-query
// deadline: the request's own if it names one; the engine's default
// and cap are the call path's to apply. The deadline starts
// immediately, so time spent waiting for a worker slot counts against
// the query's budget; cache hits are served before any deadline check,
// so a warmed batch succeeds even with a tiny budget.
func (e *Engine) runBatchRequest(ctx context.Context, r Request) BatchResult {
	if r.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.Timeout)
		defer cancel()
	}
	ex, cached, err := e.ExplainCached(ctx, r.Table, r.Query)
	return BatchResult{Explanation: ex, Cached: cached, Err: err}
}

// RankedCandidate is one semantic-parse candidate on the wire: a
// ranked query with its utterance, model score and result preview.
type RankedCandidate struct {
	Rank      int     `json:"rank"`
	Query     string  `json:"query"`
	Utterance string  `json:"utterance"`
	Score     float64 `json:"score"`
	Result    string  `json:"result,omitempty"`
}

// ParseQuestion maps an NL question over a registered table to ranked
// candidate queries via the log-linear semantic parser (Figure 2's
// deployment flow). topK <= 0 uses the parser's default (7), the depth
// the parse cache keeps. A deeper topK generates the whole pool afresh
// under the same admission as a cache miss, capped by QueryTimeout,
// and caches nothing.
func (e *Engine) ParseQuestion(ctx context.Context, tableName, question string, topK int) ([]RankedCandidate, error) {
	e.met.parses.Inc()
	if topK <= 0 {
		topK = e.parser.TopK
	}
	var pool parsedPool
	var err error
	if topK > e.parser.TopK {
		pool, err = e.parseDeep(ctx, tableName, question, topK)
	} else {
		pool, _, _, err = e.parses.call(ctx, tableName, question)
	}
	if err != nil {
		return nil, err
	}
	pool = pool[:min(topK, len(pool))]
	out := make([]RankedCandidate, len(pool))
	for i, r := range pool {
		out[i] = RankedCandidate{
			Rank:      i + 1,
			Query:     r.query.String(),
			Utterance: utterance.Utter(r.query),
			Score:     r.score,
			Result:    r.preview,
		}
	}
	return out, nil
}

// parseDeep serves a topK past the depth the parse cache keeps: it
// generates the question's whole pool, admitted as a cache miss is, and
// ranks its first topK candidates with previews rendered from their
// own denotations. Nothing of it is cached.
func (e *Engine) parseDeep(ctx context.Context, tableName, question string, topK int) (parsedPool, error) {
	snap, ok := e.store.Get(tableName)
	if !ok {
		err := fmt.Errorf("%w: %q", ErrUnknownTable, tableName)
		e.countFailure(err)
		return nil, err
	}
	ctx, cancel := e.withDefaultDeadline(ctx)
	defer cancel()
	cands, err := admit(e, ctx, snap, tableName, question, e.generate)
	if err != nil {
		e.countFailure(err)
		return nil, err
	}
	return rank(cands[:min(topK, len(cands))]), nil
}

// parsedPool is what the parse cache keeps of a question: the ranks a
// default response shows, the parser's TopK. The rest of the pool, and
// the feature vectors, query texts and denotations of the ranks kept,
// have done their work once it is ranked and the previews rendered.
type parsedPool []rankedQuery

// rankedQuery is one rank of a parsedPool: its query, its score and
// the preview of its result.
type rankedQuery struct {
	query   dcs.Expr
	score   float64
	preview string
}

// rank keeps of ranked candidates what a response shows.
func rank(cands []*semparse.Candidate) parsedPool {
	pool := make(parsedPool, len(cands))
	for i, c := range cands {
		pool[i] = rankedQuery{query: c.Query, score: c.Score, preview: c.Result.String()}
	}
	return pool
}

// computeParse ranks a question's candidates for the parse cache: the
// service's most expensive step, which is why timeout+retry loops on a
// slow question must join one generation instead of stacking new ones.
// The pool is read-only once published, safe to share across waiters.
func (e *Engine) computeParse(ctx context.Context, snap *store.Snapshot, tableName, question string) (parsedPool, error) {
	cands, err := e.generate(ctx, snap, tableName, question)
	return rank(cands[:min(e.parser.TopK, len(cands))]), err
}

// generate ranks the whole candidate pool of a question. Generation
// does not poll a context.
func (e *Engine) generate(_ context.Context, snap *store.Snapshot, _, question string) ([]*semparse.Candidate, error) {
	start := time.Now()
	cands := e.parser.ParseAll(question, snap.Table())
	e.met.parseLatency.RecordDuration(time.Since(start))
	return cands, nil
}
