package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"nlexplain/internal/metric"
	"nlexplain/internal/store"
)

// cached is one result-level cache of the engine together with the
// only road to the computation behind it: an LRU of finished values
// keyed on table version + request text, the computations in flight
// for keys not in it yet, and the hit/miss counters. The engine holds
// three — explanations, answers, candidate pools — that differ only in
// T and in compute.
type cached[T any] struct {
	e *Engine
	// compute is the uncached work, run over the snapshot call pinned.
	compute func(ctx context.Context, snap *store.Snapshot, tableName, text string) (T, error)
	lru     *lru[T]
	hits    *metric.Counter
	misses  *metric.Counter

	// inflight deduplicates concurrent computations of one key
	// (singleflight): duplicate queries in one batch execute once.
	mu       sync.Mutex
	inflight map[cacheKey]*inflightCall[T]
}

// inflightCall is one deduplicated computation; followers block on done.
type inflightCall[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// newCached builds the cache and registers its cache.<name>.{hits,
// misses,size} series on r, with what naming the cached thing in
// their help texts.
func newCached[T any](e *Engine, r *metric.Registry, name, what string, compute func(context.Context, *store.Snapshot, string, string) (T, error)) *cached[T] {
	c := &cached[T]{
		e:        e,
		compute:  compute,
		lru:      newLRU[T](e.opts.CacheSize),
		hits:     r.Counter("cache."+name+".hits", what+" cache hits"),
		misses:   r.Counter("cache."+name+".misses", what+" cache misses"),
		inflight: make(map[cacheKey]*inflightCall[T]),
	}
	r.GaugeFunc("cache."+name+".size", what+" cache entries", func() int64 { return int64(c.lru.len()) })
	return c
}

// call resolves text over the named table through the cache, reporting
// the snapshot it pinned and whether the value was a cache hit. The
// snapshot is pinned up front: the whole computation reads that one
// consistent state even if mutations install newer generations
// meanwhile. A hit is served before any deadline check, so a warm key
// succeeds under any budget.
//
// A miss computes in a goroutine of its own under the leader's request
// context: the executor polls it, so an abandoned scan stops at the
// next morsel boundary instead of running to completion. Concurrent
// requests for the same key join that one computation; a follower
// whose own budget is still live when the leader's context dies
// retakes the key and becomes the new leader. Only successful values
// are published to the LRU.
func (c *cached[T]) call(ctx context.Context, tableName, text string) (T, *store.Snapshot, bool, error) {
	var zero T
	e := c.e
	snap, ok := e.store.Get(tableName)
	if !ok {
		e.met.errors.Inc()
		return zero, nil, false, fmt.Errorf("%w: %q", ErrUnknownTable, tableName)
	}
	key := cacheKey{snap.Version(), text}
	if v, ok := c.lru.get(key); ok {
		c.hits.Inc()
		return v, snap, true, nil
	}
	c.misses.Inc()
	ctx, cancel := e.withDefaultDeadline(ctx)
	defer cancel()
	if err := ctx.Err(); err != nil {
		e.countCtxErr(err)
		return zero, nil, false, err
	}
	for {
		fl, leader := c.joinInflight(key)
		if leader {
			c.startPipeline(ctx, key, fl, snap, tableName)
		}
		select {
		case <-ctx.Done():
			e.countCtxErr(ctx.Err())
			return zero, nil, false, ctx.Err()
		case <-fl.done:
			if fl.err == nil {
				return fl.val, snap, false, nil
			}
			// A ctx-class failure means the leader's caller gave up, not
			// that the request is bad.
			if !leader && isCtxErr(fl.err) && ctx.Err() == nil {
				continue
			}
			e.met.errors.Inc()
			e.countCtxErr(fl.err)
			return zero, nil, false, fl.err
		}
	}
}

// joinInflight returns the in-flight call for key, creating it (and
// reporting leadership) when absent.
func (c *cached[T]) joinInflight(key cacheKey) (*inflightCall[T], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if call, ok := c.inflight[key]; ok {
		return call, false
	}
	call := &inflightCall[T]{done: make(chan struct{})}
	c.inflight[key] = call
	return call, true
}

// finishInflight publishes a completed call's outcome and releases its
// key for future computations.
func (c *cached[T]) finishInflight(key cacheKey, call *inflightCall[T], err error) {
	call.err = err
	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(call.done)
}

// startPipeline launches a leader's computation: bounded by the
// engine's admission queue (a full queue sheds the call with
// ErrOverloaded instead of parking yet another goroutine), and taking
// a worker-pool slot while it runs. A panic in compute is contained as
// ErrInternal; a successful value is stored before waiters are
// released.
func (c *cached[T]) startPipeline(ctx context.Context, key cacheKey, call *inflightCall[T], snap *store.Snapshot, tableName string) {
	e := c.e
	select {
	case e.admit <- struct{}{}:
	default:
		e.met.sheds.Inc()
		c.finishInflight(key, call, ErrOverloaded)
		return
	}
	admitted := time.Now()
	go func() {
		defer func() { <-e.admit }()
		e.sem <- struct{}{}
		// Queue wait: admitted past the shed check, parked until a
		// worker slot freed up — the depth signal admission tuning needs.
		e.met.admitWait.RecordDuration(time.Since(admitted))
		var val T
		var err error
		defer func() {
			<-e.sem
			if r := recover(); r != nil {
				err = fmt.Errorf("%w: pipeline panic: %v", ErrInternal, r)
			}
			if err == nil {
				call.val = val
				c.lru.put(key, val)
			}
			c.finishInflight(key, call, err)
		}()
		val, err = c.compute(ctx, snap, tableName, key.text)
	}()
}
