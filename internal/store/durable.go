package store

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nlexplain/internal/metric"
	"nlexplain/internal/segment"
	"nlexplain/internal/table"
	"nlexplain/internal/vfs"
	"nlexplain/internal/wal"
)

// ErrDurability wraps any write-ahead-log failure surfaced by a
// mutation: when it is returned, the mutation was NOT applied — a
// mutation is acknowledged only after its record is fsync-durable.
// Match with errors.Is.
var ErrDurability = errors.New("store: durability failure")

// ErrDegraded marks mutations rejected fast while the store is in
// degraded read-only mode: a durability fault sealed the write-ahead
// log, reads keep serving from the in-memory snapshots, and the
// checkpoint loop is retrying with capped backoff. It is
// always wrapped in ErrDurability; match either with errors.Is.
var ErrDegraded = errors.New("store: degraded read-only mode")

// DurableOptions configures the persistence layer a Store opened with
// Open keeps under its data directory: an append-only write-ahead log
// of catalog mutations plus periodic checkpoints compacting the log
// into immutable columnar segment files (see internal/wal and
// internal/segment).
type DurableOptions struct {
	// Dir is the data directory, created if absent. Required.
	Dir string
	// CheckpointInterval is the periodic checkpoint cadence. 0 selects
	// the 30s default; negative disables the timer (checkpoints then
	// run only on the size trigger, Checkpoint calls and Close).
	CheckpointInterval time.Duration
	// CheckpointBytes triggers a checkpoint when the active WAL grows
	// past it. 0 selects the 8MiB default; negative disables the
	// trigger.
	CheckpointBytes int64
	// FS is the filesystem all durability I/O goes through. nil means
	// the real OS (vfs.OS); tests and chaos runs substitute a fault
	// injector.
	FS vfs.FS
	// RecoveryDelay is the wait after a degraded store's first failed
	// attempt to rotate to a fresh log; each further failure doubles
	// it, up to 100 times the first (see recoveryDelay). 0 selects
	// 50ms, so the wait caps at 5s. The checkpoint loop waits it out
	// on its own goroutine.
	RecoveryDelay time.Duration
}

func (o DurableOptions) withDefaults() DurableOptions {
	if o.CheckpointInterval == 0 {
		o.CheckpointInterval = 30 * time.Second
	}
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 8 << 20
	}
	return o
}

// Open builds a Store backed by the data directory in dopts: it loads
// the latest checkpoint manifest, restores every live segment
// (re-verifying each table's content hash against the recorded
// version), replays the WAL tail with checksum verification — a torn
// final record is truncated, damage before the end of a log is a hard
// error — and resumes the generation counter past everything
// recovered. Every subsequent catalog mutation is fsync-durable
// before it returns.
func Open(opts Options, dopts DurableOptions) (*Store, error) {
	if dopts.Dir == "" {
		return nil, errors.New("store: Open requires DurableOptions.Dir")
	}
	st := New(opts)
	d := &durability{
		st:   st,
		dir:  dopts.Dir,
		fs:   vfs.Or(dopts.FS),
		opts: dopts.withDefaults(),
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	d.ctx, d.stop = context.WithCancel(context.Background())
	if err := d.fs.MkdirAll(dopts.Dir, 0o755); err != nil {
		return nil, err
	}
	if err := d.recover(); err != nil {
		return nil, fmt.Errorf("store: recovering %s: %w", dopts.Dir, err)
	}
	st.dur = d
	go d.loop()
	return st, nil
}

// durability is the persistence side of a Store: the active WAL, the
// checkpointer, and recovery. Its one goroutine is loop.
type durability struct {
	st   *Store
	dir  string
	fs   vfs.FS
	opts DurableOptions

	// logMu orders mutations against checkpoint rotation: every
	// mutation holds the read side from logging its record until the
	// new snapshot is installed (see log), and rotation takes the
	// write side — so once a checkpoint has rotated, every record in
	// the sealed logs has its effect installed and the capture that
	// follows cannot miss an acknowledged mutation.
	logMu  sync.RWMutex
	w      *wal.WAL
	walSeq uint64
	// sealed sums the counters of the logs rotated away (a log's own
	// start at zero). Guarded by logMu with w, so sealed + w.Stats() is
	// one consistent reading and never moves backwards.
	sealed wal.Stats

	ckptMu       sync.Mutex // serializes checkpoints
	lastManifest *segment.Manifest

	kick chan struct{}   // wakes loop: the size trigger, or a new degraded episode
	ctx  context.Context // done once close begins; ends a recovery wait
	stop context.CancelFunc
	done chan struct{}

	// degraded is the fault that started the current degraded
	// read-only episode, nil while healthy. It is set at the first
	// durability fault a mutation observes (the WAL is sealed: its
	// sticky error rejects everything after) and cleared when loop
	// rotates to a fresh, verified log. closed suppresses the
	// transition during clean shutdown, where ErrClosed is expected.
	degraded atomic.Pointer[string]
	closed   atomic.Bool

	faults       atomic.Uint64 // durability faults observed
	episodes     atomic.Uint64 // degraded episodes entered
	recAttempts  atomic.Uint64
	recSuccesses atomic.Uint64

	replayedRecords atomic.Uint64
	truncatedBytes  atomic.Uint64

	ckptCount  atomic.Uint64
	ckptErrors atomic.Uint64
	ckptBytes  atomic.Int64  // live segment bytes at last checkpoint
	ckptGen    atomic.Uint64 // generation captured by last checkpoint
	ckptLat    atomic.Pointer[metric.Histogram]
}

func (d *durability) walPath(seq uint64) string {
	return filepath.Join(d.dir, fmt.Sprintf("wal-%016x.log", seq))
}

// log appends one mutation record, its payload emitted by payload, and
// blocks until it is fsync-durable. On success it returns a release
// closure the caller must invoke after installing the mutation's
// effect: the read lock held in between is what lets checkpoint
// rotation wait for in-flight installs (see logMu). While degraded, mutations fail fast without
// touching the sealed log; an append failure flips the store into
// degraded mode.
func (d *durability) log(tag byte, payload wal.Payload) (release func(), err error) {
	if reason := d.degraded.Load(); reason != nil {
		return nil, fmt.Errorf("%w (since fault: %s)", ErrDegraded, *reason)
	}
	d.logMu.RLock()
	w := d.w
	if err := w.AppendPayload(tag, payload); err != nil {
		d.logMu.RUnlock()
		d.enterDegraded(err)
		return nil, err
	}
	if d.opts.CheckpointBytes > 0 && w.Size() >= d.opts.CheckpointBytes {
		select {
		case d.kick <- struct{}{}:
		default:
		}
	}
	return d.logMu.RUnlock, nil
}

// enterDegraded flips the store into degraded read-only mode and wakes
// loop to recover. During clean shutdown the transition is suppressed:
// ErrClosed from the final WAL is not a fault.
func (d *durability) enterDegraded(cause error) {
	d.faults.Add(1)
	if d.closed.Load() {
		return
	}
	reason := cause.Error()
	if !d.degraded.CompareAndSwap(nil, &reason) {
		return
	}
	d.episodes.Add(1)
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

// degradedState reports whether the store is degraded and, if so, the
// fault that started the episode.
func (d *durability) degradedState() (bool, string) {
	if reason := d.degraded.Load(); reason != nil {
		return true, *reason
	}
	return false, ""
}

// probe appends a no-op record to the active WAL and waits for its
// fsync: the post-recovery proof that the fresh log really is durable
// before degraded mode lifts.
func (d *durability) probe() error {
	d.logMu.RLock()
	defer d.logMu.RUnlock()
	return d.w.Append(tagNoop, nil)
}

// listWALSeqs returns the sequence numbers of the wal-*.log files in
// the data dir, ascending.
func (d *durability) listWALSeqs() ([]uint64, error) {
	ents, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 16, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// recover rebuilds the catalog from the data directory: manifest →
// segments → WAL tail, in that order, gen-gated so records whose
// effect is already compacted into a segment replay as no-ops. First
// it sweeps the temp files of atomic writes a crash cut short.
func (d *durability) recover() error {
	if err := d.sweepTemps(); err != nil {
		return err
	}
	man, ok, err := segment.LoadManifest(d.fs, d.dir)
	if err != nil {
		return err
	}
	startSeq := uint64(1)
	if ok {
		for _, ref := range man.Tables {
			meta, t, zones, err := segment.ReadTable(d.fs, filepath.Join(d.dir, ref.File))
			if err != nil {
				return err
			}
			if meta.Name != ref.Name || meta.Gen != ref.Gen || meta.Version != ref.Version ||
				meta.Rows != ref.Rows || len(meta.Columns) != ref.Cols {
				return fmt.Errorf("%w: %s does not match its manifest entry for %q",
					segment.ErrCorrupt, ref.File, ref.Name)
			}
			if err := d.st.restore(t, zones, meta.Gen, meta.Version); err != nil {
				return err
			}
		}
		d.st.raiseGen(man.Gen)
		d.lastManifest = man
		startSeq = man.WALSeq
	}

	seqs, err := d.listWALSeqs()
	if err != nil {
		return err
	}
	var replay []uint64
	for _, seq := range seqs {
		if seq < startSeq {
			// Compacted log a crashed checkpoint didn't finish
			// deleting: everything in it is in the segments already.
			d.fs.Remove(d.walPath(seq))
			continue
		}
		replay = append(replay, seq)
	}
	active := startSeq
	if n := len(replay); n > 0 {
		active = replay[n-1]
		// Logs before the active tail were sealed by a rotation. A torn
		// tail there is tolerated: a degraded-mode seal legitimately
		// leaves a partially persisted final record behind, and every
		// acknowledged record is fsynced before its Append returns, so
		// the valid prefix always covers the acked state. Mid-log
		// damage (ErrCorrupt from the scan) stays fatal.
		for _, seq := range replay[:n-1] {
			res, err := wal.ScanFS(d.fs, d.walPath(seq))
			if err != nil {
				return err
			}
			d.truncatedBytes.Add(uint64(res.Truncated))
			if err := d.apply(res.Records); err != nil {
				return err
			}
		}
	}
	w, res, err := wal.OpenFS(d.fs, d.walPath(active))
	if err != nil {
		return err
	}
	if err := d.apply(res.Records); err != nil {
		w.Close()
		return err
	}
	d.truncatedBytes.Add(uint64(res.Truncated))
	d.w = w
	d.walSeq = active
	return nil
}

// sweepTemps deletes the temp files of atomic writes into the data
// dir: a segment or the manifest is written to its name plus ".tmp"
// and a random suffix, then renamed into place, so a process killed
// between the two leaves the temp file, and no checkpoint ever names
// it. Recovery runs it before anything else, while no write is in
// flight; names of no other shape are left alone.
func (d *durability) sweepTemps() error {
	ents, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		target, _, ok := strings.Cut(e.Name(), ".tmp")
		if ok && (target == segment.ManifestName || isSegName(target)) {
			d.fs.Remove(filepath.Join(d.dir, e.Name()))
		}
	}
	return nil
}

// isSegName reports whether name has the shape of a segment file.
func isSegName(name string) bool {
	return strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg")
}

// apply replays decoded WAL records into the store, gen-gated.
func (d *durability) apply(recs []wal.Record) error {
	for _, rec := range recs {
		if err := d.st.applyWALRecord(rec); err != nil {
			return err
		}
		d.replayedRecords.Add(1)
	}
	return nil
}

// loop runs the periodic and size-triggered checkpoints, and waits
// out degraded episodes: woken while degraded, it recovers before it
// listens for ticks again.
func (d *durability) loop() {
	defer close(d.done)
	var tick <-chan time.Time
	if d.opts.CheckpointInterval > 0 {
		t := time.NewTicker(d.opts.CheckpointInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-d.ctx.Done():
			return
		case <-tick:
		case <-d.kick:
		}
		if d.degraded.Load() == nil {
			d.checkpoint() // failure is counted; the WAL stays authoritative
		} else if !d.recoverDegraded() {
			return
		}
	}
}

// recoverDegraded retries checkpoint-plus-probe until the store is
// healthy again (a successful checkpoint rotates to a fresh WAL and
// supersedes the sealed one): the first attempt at once, then after
// recoveryDelay(RecoveryDelay, n) following failed attempt n. It runs
// on the loop goroutine and reports false if shutdown began before an
// attempt or cut a wait short.
func (d *durability) recoverDegraded() bool {
	for n := 0; d.ctx.Err() == nil; n++ {
		d.recAttempts.Add(1)
		if d.checkpoint() == nil && d.probe() == nil {
			d.recSuccesses.Add(1)
			d.degraded.Store(nil)
			return true
		}
		select {
		case <-d.ctx.Done():
		case <-time.After(recoveryDelay(d.opts.RecoveryDelay, n)):
		}
	}
	return false
}

// recoveryDelay is the wait after failed recovery attempt n (from 0):
// base, or 50ms when base is 0, doubled per attempt up to 100 times
// base. There is no jitter: one store retries its own disk, so there
// is no crowd of clients to spread out.
func recoveryDelay(base time.Duration, n int) time.Duration {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	d := base
	for ; n > 0 && d < 100*base; n-- {
		d *= 2
	}
	return min(d, 100*base)
}

// checkpoint compacts the WAL into segment files: rotate the log,
// capture every live snapshot (reusing unchanged segments), persist a
// new manifest, then garbage-collect the files it obsoleted. On any
// error the previous manifest stays authoritative and nothing is
// deleted — recovery then simply replays more WAL.
func (d *durability) checkpoint() error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	err := d.checkpointLocked()
	if err != nil {
		d.ckptErrors.Add(1)
	}
	return err
}

func (d *durability) checkpointLocked() error {
	start := time.Now()

	// Rotate. Taking the write side of logMu waits out every mutation
	// between its log append and its install, so once we hold it, the
	// sealed logs' records all have their effects visible to the
	// capture below — and no append is in flight on the old log, so its
	// counters are final and move to sealed in the same step that
	// publishes the new log.
	d.logMu.Lock()
	old := d.w
	newSeq := d.walSeq + 1
	neww, _, err := wal.OpenFS(d.fs, d.walPath(newSeq))
	if err != nil {
		d.logMu.Unlock()
		return err
	}
	st := old.Stats()
	d.sealed.Appends += st.Appends
	d.sealed.AppendedBytes += st.AppendedBytes
	d.sealed.Syncs += st.Syncs
	d.w = neww
	d.walSeq = newSeq
	d.logMu.Unlock()
	if old.Close() != nil {
		// A sealed log that fails its final flush is exactly what a
		// degraded episode leaves behind. It does not poison the
		// checkpoint: every acknowledged record was fsync-durable
		// before its Append returned, rotation waited out in-flight
		// installs, so the capture below covers all acked state and
		// the new manifest supersedes the damaged log entirely.
		d.faults.Add(1)
	}

	// Capture. Segments for snapshots unchanged since the previous
	// manifest are reused, not rewritten.
	prev := make(map[string]segment.TableRef)
	if d.lastManifest != nil {
		for _, r := range d.lastManifest.Tables {
			prev[r.Name] = r
		}
	}
	snaps := d.st.Snapshots()
	refs := make([]segment.TableRef, 0, len(snaps))
	for _, snap := range snaps {
		t := snap.Table()
		ref := segment.TableRef{
			Name:    t.Name(),
			Gen:     snap.Gen(),
			Version: snap.Version(),
			Rows:    t.NumRows(),
			Cols:    t.NumCols(),
		}
		if p, ok := prev[ref.Name]; ok && p.Gen == ref.Gen && p.Version == ref.Version {
			ref.File = p.File
		} else {
			// Generations are unique per snapshot, so they name
			// segment files unambiguously (table names can hold
			// arbitrary bytes and cannot).
			ref.File = fmt.Sprintf("seg-%016x.seg", ref.Gen)
			m := segment.Meta{
				Name:    ref.Name,
				Gen:     ref.Gen,
				Version: ref.Version,
				Columns: t.Columns(),
				Rows:    ref.Rows,
			}
			if err := segment.WriteTable(d.fs, filepath.Join(d.dir, ref.File), m, t, t.ZoneSnapshot()); err != nil {
				return err
			}
		}
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Name < refs[j].Name })
	man := &segment.Manifest{Gen: d.st.gen.Load(), WALSeq: newSeq, Tables: refs}
	if err := segment.WriteManifest(d.fs, d.dir, man); err != nil {
		return err
	}
	d.lastManifest = man

	// GC: only now that the manifest is durable are the compacted
	// logs and orphaned segments garbage.
	live := make(map[string]bool, len(refs))
	var segBytes int64
	for _, r := range refs {
		live[r.File] = true
		if fi, err := d.fs.Stat(filepath.Join(d.dir, r.File)); err == nil {
			segBytes += fi.Size()
		}
	}
	if seqs, err := d.listWALSeqs(); err == nil {
		for _, seq := range seqs {
			if seq < newSeq {
				d.fs.Remove(d.walPath(seq))
			}
		}
	}
	if ents, err := d.fs.ReadDir(d.dir); err == nil {
		for _, e := range ents {
			if name := e.Name(); isSegName(name) && !live[name] {
				d.fs.Remove(filepath.Join(d.dir, name))
			}
		}
	}

	d.ckptCount.Add(1)
	d.ckptGen.Store(man.Gen)
	d.ckptBytes.Store(segBytes)
	if h := d.ckptLat.Load(); h != nil {
		h.RecordDuration(time.Since(start))
	}
	return nil
}

// close runs a final checkpoint (the clean-shutdown flush) and closes
// the active WAL. Mutations after close fail with ErrDurability.
func (d *durability) close() error {
	d.closed.Store(true)
	d.stop()
	<-d.done
	err := d.checkpoint()
	d.logMu.Lock()
	cerr := d.w.Close()
	d.logMu.Unlock()
	if err == nil {
		err = cerr
	}
	return err
}

// walStats sums the sealed logs' counters with the active one's.
func (d *durability) walStats() wal.Stats {
	d.logMu.RLock()
	defer d.logMu.RUnlock()
	st := d.w.Stats()
	st.Appends += d.sealed.Appends
	st.AppendedBytes += d.sealed.AppendedBytes
	st.Syncs += d.sealed.Syncs
	return st
}

// restore installs a recovered table as a snapshot under an explicit
// generation and version, re-verifying the content hash so a damaged
// or mismatched segment/record fails recovery instead of serving wrong
// rows. zones, when non-nil, is the segment footer's zone maps,
// installed after the content hash verifies so restored tables skip
// the lazy rebuild scan (a shape mismatch is ignored and the maps
// rebuild lazily instead). Recovery-only: no WAL logging.
func (st *Store) restore(t *table.Table, zones [][]table.Zone, gen uint64, version string) error {
	name := t.Name()
	if v := contentVersion(t); v != version {
		return fmt.Errorf("recovered table %q content hash %s does not match recorded version %s", name, v, version)
	}
	if zones != nil {
		t.InstallZoneMaps(zones)
	}
	snap := snapshotOf(t, version, gen)
	sh := st.shardFor(name)
	sh.mutMu.Lock()
	st.install(sh, name, snap)
	sh.mutMu.Unlock()
	st.raiseGen(gen)
	return nil
}

// dropRestored applies a replayed drop record: it removes the table
// only when the resident generation is not newer than the dropped one
// (a later re-registration may already be compacted into a segment).
func (st *Store) dropRestored(name string, gen uint64) {
	sh := st.shardFor(name)
	sh.mutMu.Lock()
	defer sh.mutMu.Unlock()
	sh.mu.Lock()
	if old, ok := sh.tables[name]; ok && old.gen <= gen {
		delete(sh.tables, name)
	}
	sh.mu.Unlock()
	st.raiseGen(gen)
}

// raiseGen lifts the generation counter to at least gen, so mutations
// after recovery continue strictly past every recovered generation.
func (st *Store) raiseGen(gen uint64) {
	for {
		cur := st.gen.Load()
		if cur >= gen || st.gen.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// peek reads the resident snapshot without touching the recency clock.
func (st *Store) peek(name string) (*Snapshot, bool) {
	sh := st.shardFor(name)
	sh.mu.RLock()
	s, ok := sh.tables[name]
	sh.mu.RUnlock()
	return s, ok
}

// applyWALRecord replays one record, gen-gated for idempotence:
// effects already present (compacted into a restored segment, or from
// an earlier replay pass) are skipped by comparing generations.
// Recovery is single-goroutine; the locking inside the helpers only
// mirrors normal mutation discipline.
func (st *Store) applyWALRecord(rec wal.Record) error {
	switch rec.Tag {
	case tagRegister:
		m, t, zones, err := segment.DecodeTable(rec.Data, "wal register record")
		if err != nil {
			return err
		}
		if cur, ok := st.peek(m.Name); ok && cur.gen >= m.Gen {
			st.raiseGen(m.Gen)
			return nil
		}
		return st.restore(t, zones, m.Gen, m.Version)
	case tagAppend:
		r, err := decodeAppend(rec.Data)
		if err != nil {
			return err
		}
		// A table that is not resident was dropped before the checkpoint
		// captured it; the drop record follows later in this log.
		cur, ok := st.peek(r.name)
		if !ok || cur.gen >= r.gen {
			st.raiseGen(r.gen)
			return nil
		}
		nt, err := cur.t.Append(r.rows)
		if err != nil {
			return fmt.Errorf("replaying append to %q: %w", r.name, err)
		}
		return st.restore(nt, nil, r.gen, r.version)
	case tagDrop:
		r, err := decodeDrop(rec.Data)
		if err != nil {
			return err
		}
		st.dropRestored(r.name, r.gen)
		return nil
	case tagNoop:
		// Recovery probe: proves a fresh log durable, carries no state.
		return nil
	default:
		return fmt.Errorf("%w: unknown wal record tag 0x%02x", wal.ErrCorrupt, rec.Tag)
	}
}

// Checkpoint forces a checkpoint now (no-op without durability).
func (st *Store) Checkpoint() error {
	if st.dur == nil {
		return nil
	}
	return st.dur.checkpoint()
}

// Close flushes and closes the durability layer: a final checkpoint
// compacts the WAL, then the log is closed. Mutations after Close
// fail. Purely in-memory stores close as a no-op.
func (st *Store) Close() error {
	if st.dur == nil {
		return nil
	}
	return st.dur.close()
}

// Degraded reports whether the store is in degraded read-only mode
// and, if so, the durability fault that started the episode. Purely
// in-memory stores are never degraded.
func (st *Store) Degraded() (bool, string) {
	if st.dur == nil {
		return false, ""
	}
	return st.dur.degradedState()
}
