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
	hits    *metric.Counter
	misses  *metric.Counter

	// mu guards lru and inflight together: one critical section says
	// what a request is (join), one ends a computation (finish).
	mu       sync.Mutex
	lru      *lru[T]
	inflight map[cacheKey]*inflightCall[T]
}

// inflightCall is one deduplicated computation (singleflight): its
// leader computes, followers block on done, then read val and err.
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
	r.GaugeFunc("cache."+name+".size", what+" cache entries", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(c.lru.len())
	})
	return c
}

// purgeVersion drops every finished value of one table version.
func (c *cached[T]) purgeVersion(version string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.purgeVersion(version)
}

// call resolves text over the named table through the cache, reporting
// the snapshot it pinned and whether the value was a cache hit. The
// snapshot is pinned up front: the whole computation reads that one
// consistent state even if mutations install newer generations
// meanwhile. A hit is served before any deadline check, so a warm key
// succeeds under any budget.
//
// A miss computes on the goroutine that asked, under its request
// context: the executor polls it, so a scan whose budget ran out stops
// at the next morsel boundary and its caller returns then. Concurrent
// requests for the same key follow that one computation; a follower
// whose own budget is still live when the leader's context dies
// retakes the key. Only successful values are published to the LRU.
func (c *cached[T]) call(ctx context.Context, tableName, text string) (T, *store.Snapshot, bool, error) {
	e := c.e
	snap, ok := e.store.Get(tableName)
	var val T
	if !ok {
		return c.outcome(val, nil, fmt.Errorf("%w: %q", ErrUnknownTable, tableName))
	}
	key := cacheKey{snap.Version(), text}
	val, hit, fl, leader := c.join(key)
	if hit {
		c.hits.Inc()
		return val, snap, true, nil
	}
	c.misses.Inc()
	ctx, cancel := e.withDefaultDeadline(ctx)
	defer cancel()
	for !leader {
		select {
		case <-ctx.Done():
			return c.outcome(val, snap, ctx.Err())
		case <-fl.done:
		}
		if !isCtxErr(fl.err) {
			return c.outcome(fl.val, snap, fl.err)
		}
		// The leader's caller gave up, which says nothing about the
		// request: retake the key if this caller's budget is live.
		if err := ctx.Err(); err != nil {
			return c.outcome(val, snap, err)
		}
		if val, hit, fl, leader = c.join(key); hit {
			return val, snap, false, nil
		}
	}
	val, err := c.lead(ctx, key, fl, snap, tableName)
	return c.outcome(val, snap, err)
}

// outcome is how a call that missed returns, a failure booked.
func (c *cached[T]) outcome(val T, snap *store.Snapshot, err error) (T, *store.Snapshot, bool, error) {
	if err != nil {
		c.e.countFailure(err)
	}
	return val, snap, false, err
}

// join says, in one critical section, what a request for key is: a hit
// (val is the finished value), a follower of the computation in flight
// fl, or the leader of a new one.
func (c *cached[T]) join(key cacheKey) (val T, hit bool, fl *inflightCall[T], leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if val, hit = c.lru.get(key); hit {
		return val, true, nil, false
	}
	if fl = c.inflight[key]; fl != nil {
		return val, false, fl, false
	}
	fl = &inflightCall[T]{done: make(chan struct{})}
	c.inflight[key] = fl
	return val, false, fl, true
}

// finish ends the computation fl of key: a successful value enters the
// LRU as the key leaves the in-flight set, so no request finds the key
// in neither; then followers are released.
func (c *cached[T]) finish(key cacheKey, fl *inflightCall[T], val T, err error) {
	fl.val, fl.err = val, err
	c.mu.Lock()
	if err == nil {
		c.lru.put(key, val)
	}
	delete(c.inflight, key)
	c.mu.Unlock()
	close(fl.done)
}

// lead computes key's value on the calling goroutine under the
// engine's admission and finishes fl with the outcome, deferred so that
// followers are released however the computation ends.
func (c *cached[T]) lead(ctx context.Context, key cacheKey, fl *inflightCall[T], snap *store.Snapshot, tableName string) (val T, err error) {
	defer func() { c.finish(key, fl, val, err) }()
	return admit(c.e, ctx, snap, tableName, key.text, c.compute)
}

// admit runs compute on the calling goroutine once the engine admits
// it: a cache miss's leader, and a parse deeper than the cache keeps.
// A full pending set sheds the computation with ErrOverloaded instead
// of letting yet another caller wait; an admitted one waits for a
// worker slot no longer than ctx allows and holds it while it runs. A
// panic in compute is contained as ErrInternal. Slot and pending count
// are given back before admit returns.
func admit[T any](e *Engine, ctx context.Context, snap *store.Snapshot, tableName, text string,
	compute func(context.Context, *store.Snapshot, string, string) (T, error)) (val T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: pipeline panic: %v", ErrInternal, r)
		}
	}()
	if err := ctx.Err(); err != nil {
		return val, err
	}
	defer e.pending.Add(-1)
	if e.pending.Add(1) > int64(e.opts.MaxPending) {
		e.met.sheds.Inc()
		return val, ErrOverloaded
	}
	admitted := time.Now()
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return val, ctx.Err()
	}
	defer func() { <-e.sem }()
	// The depth signal admission tuning needs.
	e.met.admitWait.RecordDuration(time.Since(admitted))
	return compute(ctx, snap, tableName, text)
}
