// Package store is the versioned table storage layer behind the
// explanation engine: a sharded catalog of immutable table snapshots
// with a monotonic generation counter, live mutation (append, replace,
// drop), and a configurable byte budget over the resident tables'
// footprint. A mutation reports the version it displaced (the new
// snapshot's Displaced, or the dropped snapshot's Version); the store
// calls nothing outside itself, and its client — the engine — purges
// that version's cached results.
//
// The catalog is lock-striped: table names hash (FNV-1a) onto a fixed
// set of shards, each guarded by its own RWMutex, so registration
// traffic on one table never serializes reads of another. Within a
// shard, reads take only the read lock and return a pointer — snapshot
// acquisition is O(1) and copies nothing.
//
// Every table state is an immutable Snapshot carrying the table, a
// content-hash version and a store-wide monotonic generation.
// Mutations never modify a published snapshot: they build a successor
// (copy-on-write through table.Append, or a whole new table) and swap
// the catalog pointer, so an execution that acquired a snapshot keeps
// reading a consistent table while newer generations install around
// it.
//
// The store keeps no byte counter of its own: a table's footprint is
// read off the table (BaseBytes for the code and typed vectors,
// dictionaries and KB index, DerivedBytes for the sorted numeric
// indexes and zone maps it publishes now), and the resident footprint
// is their sum over the current snapshots, taken at each budget check
// and at each scrape of store.bytes. When it exceeds Options.ByteBudget
// the store evicts cold tables' derived indexes — never base data — in
// least-recently-used order.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"nlexplain/internal/metric"
	"nlexplain/internal/segment"
	"nlexplain/internal/semparse"
	"nlexplain/internal/table"
	"nlexplain/internal/wal"
)

// ErrUnknownTable reports a mutation against a name not in the
// catalog; match it with errors.Is.
var ErrUnknownTable = errors.New("store: unknown table")

// Options configures a Store. The zero value selects defaults.
type Options struct {
	// ByteBudget bounds the store's resident-byte estimate (base data
	// plus derived indexes across all tables). It is checked when a
	// snapshot is installed, and when Get acquires one after a sorted
	// numeric index or zone map was published anywhere in the process
	// (table.DerivedBuilds moved) since the store's last such check;
	// over it, cold tables' derived indexes are evicted, so an index
	// build that crosses it is evicted at the next acquisition. 0 means
	// no budget (never evict, and Get sums nothing).
	ByteBudget int64
}

// numShards is the number of lock stripes.
const numShards = 16

// Snapshot is one immutable table state: acquired O(1) by readers,
// never modified after install, so a plan execution handed its Table
// never observes a mutation landing mid-flight.
type Snapshot struct {
	t       *table.Table
	version string
	gen     uint64
	// displaced is the version of the snapshot this one replaced under
	// its name, "" if the name was free; set by install before the
	// snapshot is published.
	displaced string
	// lastUsed is the store's logical access clock at the snapshot's
	// most recent acquisition; the eviction scan orders tables by it.
	lastUsed atomic.Uint64
}

// Table returns the snapshot's immutable table.
func (s *Snapshot) Table() *table.Table { return s.t }

// Version is the content-hash fingerprint of the snapshot's table:
// cache keys embed it, so two snapshots with identical content share
// cached results and any content change invalidates them.
func (s *Snapshot) Version() string { return s.version }

// Gen is the store-wide monotonic generation at which this snapshot
// was installed; unlike Version it is unique per install, so it stamps
// mutation order even when content repeats.
func (s *Snapshot) Gen() uint64 { return s.gen }

// Displaced is the version of the snapshot this one replaced when it
// was installed, "" when its name was free. The engine purges cached
// results of that version unless it equals Version.
func (s *Snapshot) Displaced() string { return s.displaced }

// snapshotParser is the uncached semantic parser every snapshot
// returns; ParseAll only reads its weights, so it is safe for
// concurrent use. Candidate pools are memoized outside the store.
var snapshotParser = semparse.NewUncachedParser()

// Parser returns an uncached semantic parser, shared by every
// snapshot.
func (s *Snapshot) Parser() *semparse.Parser { return snapshotParser }

// shard is one lock stripe of the catalog. mu guards the map only;
// mutMu serializes mutations of the shard's tables so expensive
// successor builds (table.Append re-deriving indexes) happen outside
// mu and readers are never blocked behind them.
type shard struct {
	mu     sync.RWMutex
	mutMu  sync.Mutex
	tables map[string]*Snapshot
}

// Store is the sharded versioned catalog. It is safe for concurrent
// use.
type Store struct {
	opts   Options
	shards [numShards]*shard

	gen       atomic.Uint64 // monotonic generation counter
	clock     atomic.Uint64 // logical access clock for recency
	evictions atomic.Uint64 // derived-index eviction count
	// swept is table.DerivedBuilds as the last budgeted Get read it:
	// until it moves no table's derived bytes have grown, and Get
	// sums nothing.
	swept atomic.Uint64

	evictMu sync.Mutex // serializes eviction scans

	// dur is the persistence layer, nil for purely in-memory stores
	// (New). Stores built by Open write every mutation to a WAL before
	// installing it and compact into segment checkpoints (durable.go).
	dur *durability
}

// New builds a Store (zero Options = defaults).
func New(opts Options) *Store {
	st := &Store{opts: opts}
	for i := range st.shards {
		st.shards[i] = &shard{tables: make(map[string]*Snapshot)}
	}
	return st
}

func (st *Store) shardFor(name string) *shard {
	h := fnv.New32a()
	h.Write([]byte(name))
	return st.shards[h.Sum32()%numShards]
}

// Get acquires the current snapshot of a table: one shard read-lock,
// one map probe, no copying — O(1) regardless of table size. The
// snapshot stays fully readable even if the table is mutated or
// dropped afterwards. With a ByteBudget, Get then checks the budget,
// a sum over the resident tables, if a derived index was published in
// the process since its last check: builds that crossed it are
// evicted there. A Get after no build sums nothing.
func (st *Store) Get(name string) (*Snapshot, bool) {
	sh := st.shardFor(name)
	sh.mu.RLock()
	s, ok := sh.tables[name]
	sh.mu.RUnlock()
	if !ok {
		return nil, false
	}
	s.lastUsed.Store(st.clock.Add(1))
	if st.opts.ByteBudget > 0 {
		if n := table.DerivedBuilds(); st.swept.Swap(n) != n {
			st.maybeEvict()
		}
	}
	return s, true
}

// Len reports the number of tables in the catalog.
func (st *Store) Len() int {
	n := 0
	for _, sh := range st.shards {
		sh.mu.RLock()
		n += len(sh.tables)
		sh.mu.RUnlock()
	}
	return n
}

// Snapshots returns the current snapshot of every table, in
// unspecified order.
func (st *Store) Snapshots() []*Snapshot {
	var out []*Snapshot
	for _, sh := range st.shards {
		sh.mu.RLock()
		for _, s := range sh.tables {
			out = append(out, s)
		}
		sh.mu.RUnlock()
	}
	return out
}

// newSnapshot wraps a table into an installable snapshot, assigning
// the next generation.
func (st *Store) newSnapshot(t *table.Table) *Snapshot {
	return snapshotOf(t, contentVersion(t), st.gen.Add(1))
}

func snapshotOf(t *table.Table, version string, gen uint64) *Snapshot {
	return &Snapshot{t: t, version: version, gen: gen}
}

// install publishes snap under name, recording on it the version it
// displaced, and checks the byte budget. Callers hold sh.mutMu.
func (st *Store) install(sh *shard, name string, snap *Snapshot) {
	snap.lastUsed.Store(st.clock.Add(1))
	sh.mu.Lock()
	if old := sh.tables[name]; old != nil {
		snap.displaced = old.version
	}
	sh.tables[name] = snap
	sh.mu.Unlock()
	st.maybeEvict()
}

// Register installs t under its own name, replacing any existing
// snapshot of that name, and returns the new snapshot, whose Displaced
// names the replaced version ("" if none). On a durable store the
// registration is fsync-durable before it is acknowledged; an
// ErrDurability error means it was not applied.
func (st *Store) Register(t *table.Table) (*Snapshot, error) {
	name := t.Name()
	sh := st.shardFor(name)
	sh.mutMu.Lock()
	defer sh.mutMu.Unlock()
	snap := st.newSnapshot(t)
	if st.dur != nil {
		m := segment.Meta{Name: name, Gen: snap.gen, Version: snap.version, Columns: t.Columns(), Rows: t.NumRows()}
		release, err := st.dur.log(tagRegister, func(put func([]byte) error) error {
			return segment.EncodeTable(m, t, nil, put)
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrDurability, err)
		}
		defer release()
	}
	st.install(sh, name, snap)
	return snap, nil
}

// Append builds the copy-on-write successor of a table with rows
// appended and installs it as a new snapshot. In-flight readers keep
// the snapshot they pinned; the expensive successor build runs outside
// the shard's read path, so concurrent Gets never block on it.
func (st *Store) Append(name string, rows [][]string) (*Snapshot, error) {
	sh := st.shardFor(name)
	sh.mutMu.Lock()
	defer sh.mutMu.Unlock()
	sh.mu.RLock()
	cur, ok := sh.tables[name]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, name)
	}
	nt, err := cur.t.Append(rows)
	if err != nil {
		return nil, err
	}
	snap := st.newSnapshot(nt)
	if st.dur != nil {
		payload := encodeAppend(name, snap.gen, snap.version, nt.NumCols(), rows)
		release, err := st.dur.log(tagAppend, wal.Bytes(payload))
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrDurability, err)
		}
		defer release()
	}
	st.install(sh, name, snap)
	return snap, nil
}

// Drop removes a table from the catalog, returning its final snapshot,
// whose Version is the one the drop displaced; snapshots already
// acquired stay readable. On a durable store the drop is
// fsync-durable before it is acknowledged.
func (st *Store) Drop(name string) (*Snapshot, bool, error) {
	sh := st.shardFor(name)
	sh.mutMu.Lock()
	defer sh.mutMu.Unlock()
	sh.mu.RLock()
	old, ok := sh.tables[name]
	sh.mu.RUnlock()
	if !ok {
		return nil, false, nil
	}
	if st.dur != nil {
		release, err := st.dur.log(tagDrop, wal.Bytes(encodeDrop(name, old.gen)))
		if err != nil {
			return nil, false, fmt.Errorf("%w: %w", ErrDurability, err)
		}
		defer release()
	}
	sh.mu.Lock()
	delete(sh.tables, name)
	sh.mu.Unlock()
	return old, true, nil
}

// resident is the store's footprint: base plus derived bytes of every
// current snapshot's table, read off the tables now.
func (st *Store) resident() int64 {
	var n int64
	for _, sh := range st.shards {
		sh.mu.RLock()
		for _, s := range sh.tables {
			n += s.t.BaseBytes() + s.t.DerivedBytes()
		}
		sh.mu.RUnlock()
	}
	return n
}

// maybeEvict enforces the byte budget: while the resident estimate
// exceeds it, drop the derived indexes of the least recently used
// tables. Base data is never evicted, and when the budget is
// unattainable — base data alone exceeds it, so no amount of index
// dropping can reach it — the sweep evicts nothing rather than
// thrashing (dropping every index the moment a query rebuilds it);
// the store then simply stays over budget.
func (st *Store) maybeEvict() {
	budget := st.opts.ByteBudget
	if budget <= 0 || st.resident() <= budget {
		return
	}
	st.evictMu.Lock()
	defer st.evictMu.Unlock()
	type cand struct {
		t    *table.Table
		used uint64
	}
	var cands []cand
	var bytes, reclaimable int64
	for _, snap := range st.Snapshots() {
		d := snap.t.DerivedBytes()
		bytes += snap.t.BaseBytes() + d
		if d > 0 {
			cands = append(cands, cand{t: snap.t, used: snap.lastUsed.Load()})
			reclaimable += d
		}
	}
	if bytes <= budget || bytes-reclaimable > budget {
		// Another evictor got here first, or the budget is
		// unattainable: evicting every index still leaves us over.
		return
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].used < cands[j].used })
	for _, c := range cands {
		if bytes <= budget {
			return
		}
		if freed := c.t.DropDerivedIndexes(); freed > 0 {
			bytes -= freed
			st.evictions.Add(1)
		}
	}
}

// RegisterMetrics puts the store's series on a metric registry
// (conventionally the "store." sub-registry of the engine's root):
// scrape-time functional gauges and counters over the store's atomics,
// the only way those values leave the package.
func (st *Store) RegisterMetrics(r *metric.Registry) {
	r.GaugeFunc("bytes", "resident-byte estimate (base data + derived indexes, all tables)", st.resident)
	r.CounterFunc("evictions", "derived-index evictions under byte-budget pressure", st.evictions.Load)
	r.GaugeFunc("tables", "catalog size", func() int64 { return int64(st.Len()) })
	r.GaugeFunc("generation", "monotonic snapshot-install counter", func() int64 {
		return int64(st.gen.Load())
	})

	// Durability series. Registered unconditionally so the namespace
	// is identical for memory-only and durable stores; without a data
	// dir they scrape as zeros.
	d := st.dur
	r.CounterFunc("wal.appends", "wal records appended (catalog mutations logged)",
		durSeries(d, func(d *durability) uint64 { return d.walStats().Appends }))
	r.CounterFunc("wal.appended.bytes", "framed bytes appended to the wal",
		durSeries(d, func(d *durability) uint64 { return d.walStats().AppendedBytes }))
	r.CounterFunc("wal.syncs", "wal fsyncs issued; < appends when appenders overlapped",
		durSeries(d, func(d *durability) uint64 { return d.walStats().Syncs }))
	r.GaugeFunc("wal.size.bytes", "active wal file size",
		durSeries(d, func(d *durability) int64 { return d.walStats().Size }))
	r.CounterFunc("wal.replayed.records", "wal records replayed at recovery",
		durSeries(d, func(d *durability) uint64 { return d.replayedRecords.Load() }))
	r.CounterFunc("wal.truncated.bytes", "torn-tail bytes truncated at recovery",
		durSeries(d, func(d *durability) uint64 { return d.truncatedBytes.Load() }))
	r.CounterFunc("checkpoint.count", "checkpoints completed",
		durSeries(d, func(d *durability) uint64 { return d.ckptCount.Load() }))
	r.CounterFunc("checkpoint.errors", "checkpoints failed (wal stays authoritative)",
		durSeries(d, func(d *durability) uint64 { return d.ckptErrors.Load() }))
	r.GaugeFunc("checkpoint.bytes", "live segment bytes at the last checkpoint",
		durSeries(d, func(d *durability) int64 { return d.ckptBytes.Load() }))
	r.GaugeFunc("checkpoint.generation", "store generation captured by the last checkpoint",
		durSeries(d, func(d *durability) int64 { return int64(d.ckptGen.Load()) }))
	h := r.LatencyHistogram("checkpoint.latency.seconds", "checkpoint wall time (rotate, capture, manifest, gc)")
	if d != nil {
		d.ckptLat.Store(h)
	}

	// Degraded-mode series: the 0/1 degraded gauge is what dashboards
	// alert on; faults counts every durability fault observed and the
	// recovery pair tracks the checkpoint loop's retries.
	r.GaugeFunc("degraded", "1 while in degraded read-only mode, else 0", durSeries(d, func(d *durability) int64 {
		if d.degraded.Load() != nil {
			return 1
		}
		return 0
	}))
	r.CounterFunc("degraded.episodes", "degraded read-only episodes entered",
		durSeries(d, func(d *durability) uint64 { return d.episodes.Load() }))
	r.CounterFunc("faults.durability", "durability faults observed (wal append/sync/seal failures)",
		durSeries(d, func(d *durability) uint64 { return d.faults.Load() }))
	r.CounterFunc("recovery.attempts", "degraded-mode recovery attempts (checkpoint + probe)",
		durSeries(d, func(d *durability) uint64 { return d.recAttempts.Load() }))
	r.CounterFunc("recovery.successes", "degraded-mode recoveries that lifted read-only mode",
		durSeries(d, func(d *durability) uint64 { return d.recSuccesses.Load() }))

	// Zone-map series: builds is a process-wide monotonic counter of
	// per-column constructions, bytes the footprint of the maps this
	// store's resident tables hold (part of DerivedBytes).
	r.CounterFunc("zonemap.builds", "zone maps built (per-column constructions)", table.ZoneMapBuilds)
	r.GaugeFunc("zonemap.bytes", "resident bytes of published zone maps", func() int64 {
		var n int64
		for _, snap := range st.Snapshots() {
			n += snap.t.ZoneBytes()
		}
		return n
	})
}

// durSeries is the scrape function of one durability series: read on
// the durability layer, zero on a store without one.
func durSeries[T int64 | uint64](d *durability, read func(*durability) T) func() T {
	return func() T {
		if d == nil {
			return 0
		}
		return read(d)
	}
}

// contentVersion fingerprints a table's full content; cache keys embed
// it, so re-registering changed content under the same name
// invalidates every cached result without any explicit flush. Strings
// are length-prefixed (not just delimited — cells may legally contain
// any byte) and the shape is hashed explicitly, so neither shifted
// cell boundaries nor reshaped identical text can collide.
func contentVersion(t *table.Table) string {
	h := fnv.New64a()
	write := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	write(t.Name())
	write(fmt.Sprintf("%dx%d", t.NumRows(), t.NumCols()))
	for _, c := range t.Columns() {
		write(c)
	}
	for r := 0; r < t.NumRows(); r++ {
		for c := 0; c < t.NumCols(); c++ {
			write(t.Raw(r, c))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
