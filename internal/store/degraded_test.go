package store

import (
	"errors"
	"runtime"
	"syscall"
	"testing"
	"time"

	"nlexplain/internal/fault"
	"nlexplain/internal/vfs"
)

// openInjected opens a durable store over an InjectFS with a fast
// deterministic recovery backoff and automatic checkpoints disabled.
func openInjected(t *testing.T, dir string, fs *fault.InjectFS) *Store {
	t.Helper()
	st, err := Open(Options{}, DurableOptions{
		Dir:                dir,
		CheckpointInterval: -1,
		CheckpointBytes:    -1,
		FS:                 fs,
		RecoveryDelay:      time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return st
}

// waitHealthy polls until the store leaves degraded mode.
func waitHealthy(t *testing.T, st *Store, bound time.Duration) {
	t.Helper()
	deadline := time.Now().Add(bound)
	for {
		if degraded, _ := st.Degraded(); !degraded {
			return
		}
		if time.Now().After(deadline) {
			_, reason := st.Degraded()
			t.Fatalf("still degraded after %v: %s", bound, reason)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStoreDegradedRecovery is the full degraded-mode life cycle: a
// sticky WAL fault flips the store read-only, reads keep serving,
// mutations fail fast, healing the filesystem lets the backoff loop
// recover, and a clean reopen on the real OS sees every acked
// mutation.
func TestStoreDegradedRecovery(t *testing.T) {
	dir := t.TempDir()
	fs := fault.NewInject(vfs.OS, 7)
	st := openInjected(t, dir, fs)

	if _, err := st.Register(mustTable(t, "a", 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register(mustTable(t, "b", 3)); err != nil {
		t.Fatal(err)
	}
	acked := captureState(st)

	// Seal the log: every write to any wal file now fails.
	fs.SetRules(&fault.Rule{Op: fault.OpWrite, Path: "wal-*.log", Count: fault.Sticky, Err: syscall.EIO})

	_, err := st.Register(mustTable(t, "c", 2))
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("faulted register err = %v, want ErrDurability", err)
	}
	if errors.Is(err, ErrDegraded) {
		t.Fatalf("first fault should surface the I/O error, not the degraded rejection: %v", err)
	}
	if degraded, reason := st.Degraded(); !degraded || reason == "" {
		t.Fatalf("Degraded() = %v, %q after fault", degraded, reason)
	}

	// Fail fast now: the second mutation must not touch the sealed log.
	if _, err := st.Register(mustTable(t, "d", 2)); !errors.Is(err, ErrDegraded) || !errors.Is(err, ErrDurability) {
		t.Fatalf("degraded register err = %v, want ErrDegraded (wrapped in ErrDurability)", err)
	}

	// Reads keep serving the acked snapshots.
	for name, ws := range acked {
		s, ok := st.Get(name)
		if !ok || s.Version() != ws.version {
			t.Fatalf("degraded read of %q = %v, version mismatch", name, ok)
		}
	}

	// Heal: the checkpoint loop rotates to a fresh log and exits degraded.
	fs.Heal()
	waitHealthy(t, st, 5*time.Second)

	// Post-recovery mutations work again.
	if _, err := st.Register(mustTable(t, "c", 2)); err != nil {
		t.Fatalf("post-recovery register: %v", err)
	}
	want := captureState(st)
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen on the real OS: everything acked must be there.
	st2 := openDurable(t, dir)
	defer st2.Close()
	checkRecovered(t, st2, want)
}

// TestStoreDegradedStreamedRegister tears a register record that
// streams into the log in pieces: the write of its second piece fails
// once. The registration is not acked, the store degrades with the
// acked tables readable, recovers on its own, takes the table on a
// second try, and a clean reopen holds exactly what was acked.
func TestStoreDegradedStreamedRegister(t *testing.T) {
	dir := t.TempDir()
	fs := fault.NewInject(vfs.OS, 13)
	st := openInjected(t, dir, fs)
	if _, err := st.Register(mustTable(t, "a", 4)); err != nil {
		t.Fatal(err)
	}
	acked := captureState(st)
	big := mustTable(t, "big", 30000) // a register record of several pieces

	// The record's writes are its header, then one per piece.
	fs.SetRules(&fault.Rule{Op: fault.OpWrite, Path: "wal-*.log", AfterN: 2, Err: syscall.EIO, ShortWrite: true})
	if _, err := st.Register(big); !errors.Is(err, ErrDurability) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn register err = %v, want ErrDurability wrapping EIO", err)
	}
	if fs.Stats().Faults[fault.OpWrite] != 1 {
		t.Fatal("the write fault did not fire")
	}
	if _, ok := st.Get("big"); ok {
		t.Fatal("a register that failed is installed")
	}
	for name, ws := range acked {
		if s, ok := st.Get(name); !ok || s.Version() != ws.version {
			t.Fatalf("acked table %q lost after the torn register", name)
		}
	}
	waitHealthy(t, st, 5*time.Second)
	if _, err := st.Register(big); err != nil {
		t.Fatalf("register after recovery: %v", err)
	}
	want := captureState(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openDurable(t, dir)
	defer st2.Close()
	checkRecovered(t, st2, want)
}

// TestStoreDegradedSyncFault covers the other seal shape: appends
// whose fsync fails. The mutation must not be acked and the store must
// recover once syncs work again.
func TestStoreDegradedSyncFault(t *testing.T) {
	dir := t.TempDir()
	fs := fault.NewInject(vfs.OS, 11)
	st := openInjected(t, dir, fs)
	defer st.Close()

	if _, err := st.Register(mustTable(t, "a", 4)); err != nil {
		t.Fatal(err)
	}
	fs.SetRules(&fault.Rule{Op: fault.OpSync, Path: "wal-*.log", Count: fault.Sticky, Err: syscall.EIO})
	if _, err := st.Append("a", [][]string{{"nation9", "2024", "99"}}); !errors.Is(err, ErrDurability) {
		t.Fatalf("faulted append err = %v, want ErrDurability", err)
	}
	if degraded, _ := st.Degraded(); !degraded {
		t.Fatal("store not degraded after sync fault")
	}
	fs.Heal()
	waitHealthy(t, st, 5*time.Second)
	if _, err := st.Append("a", [][]string{{"nation9", "2024", "99"}}); err != nil {
		t.Fatalf("post-recovery append: %v", err)
	}
}

// TestStoreDegradedMetricsCounters checks the episode bookkeeping the
// store.* series scrape.
func TestStoreDegradedMetricsCounters(t *testing.T) {
	dir := t.TempDir()
	fs := fault.NewInject(vfs.OS, 3)
	st := openInjected(t, dir, fs)
	defer st.Close()

	fs.SetRules(&fault.Rule{Op: fault.OpWrite, Path: "wal-*.log", Count: fault.Sticky, Err: syscall.ENOSPC})
	if _, err := st.Register(mustTable(t, "a", 2)); err == nil {
		t.Fatal("faulted register succeeded")
	}
	fs.Heal()
	waitHealthy(t, st, 5*time.Second)

	d := st.dur
	if d.episodes.Load() != 1 {
		t.Fatalf("episodes = %d, want 1", d.episodes.Load())
	}
	if d.faults.Load() == 0 {
		t.Fatal("faults counter did not move")
	}
	if d.recAttempts.Load() == 0 || d.recSuccesses.Load() != 1 {
		t.Fatalf("recovery attempts=%d successes=%d, want >0 and 1",
			d.recAttempts.Load(), d.recSuccesses.Load())
	}
}

// TestStoreCloseWhileDegraded: shutting down mid-episode must not hang
// or crash, and a clean reopen must see every acked mutation.
func TestStoreCloseWhileDegraded(t *testing.T) {
	dir := t.TempDir()
	fs := fault.NewInject(vfs.OS, 5)
	st := openInjected(t, dir, fs)
	if _, err := st.Register(mustTable(t, "a", 4)); err != nil {
		t.Fatal(err)
	}
	acked := captureState(st)
	fs.SetRules(&fault.Rule{Op: fault.OpWrite, Path: "wal-*.log", Count: fault.Sticky, Err: syscall.EIO})
	if _, err := st.Register(mustTable(t, "b", 2)); err == nil {
		t.Fatal("faulted register succeeded")
	}
	fs.Heal() // close's final checkpoint runs on a healthy filesystem
	st.Close()

	st2 := openDurable(t, dir)
	defer st2.Close()
	checkRecovered(t, st2, acked)
}

// TestStoreRunsOneGoroutine: a durable store's background work, the
// checkpoints and a degraded episode's recovery, is one goroutine from
// Open to Close.
func TestStoreRunsOneGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	settle := func(when string, want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine()-base != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines past the baseline, want %d", when, runtime.NumGoroutine()-base, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	fs := fault.NewInject(vfs.OS, 17)
	st := openInjected(t, t.TempDir(), fs)
	settle("open", 1)

	fs.SetRules(&fault.Rule{Op: fault.OpWrite, Path: "wal-*.log", Count: fault.Sticky, Err: syscall.EIO})
	if _, err := st.Register(mustTable(t, "a", 2)); err == nil {
		t.Fatal("faulted register succeeded")
	}
	for st.dur.recAttempts.Load() < 3 {
		time.Sleep(time.Millisecond)
	}
	settle("degraded", 1)
	fs.Heal()
	waitHealthy(t, st, 5*time.Second)
	settle("recovered", 1)

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	settle("closed", 0)
}

// TestStoreCloseDuringRecoveryWait: Close ends a recovery backoff wait
// at once, however long the wait, with the fault never healed, and a
// reopen sees every acked mutation.
func TestStoreCloseDuringRecoveryWait(t *testing.T) {
	dir := t.TempDir()
	fs := fault.NewInject(vfs.OS, 19)
	st, err := Open(Options{}, DurableOptions{
		Dir: dir, CheckpointInterval: -1, CheckpointBytes: -1, FS: fs, RecoveryDelay: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register(mustTable(t, "a", 4)); err != nil {
		t.Fatal(err)
	}
	acked := captureState(st)
	fs.SetRules(&fault.Rule{Op: fault.OpWrite, Path: "wal-*.log", Count: fault.Sticky, Err: syscall.EIO})
	if _, err := st.Register(mustTable(t, "b", 2)); err == nil {
		t.Fatal("faulted register succeeded")
	}
	for st.dur.recAttempts.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		st.Close() // the final checkpoint may fail on the sealed disk
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked inside an hour-long recovery wait")
	}
	st2 := openDurable(t, dir)
	defer st2.Close()
	checkRecovered(t, st2, acked)
}
