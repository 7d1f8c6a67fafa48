package store

import (
	"errors"
	"runtime"
	"strings"
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

// storeGoroutines returns the stacks of the goroutines that the store
// package's own code started from the calling goroutine, or from one of
// those in turn. Reading them off the stacks, not off
// runtime.NumGoroutine, leaves out the runtime's, the testing
// package's and earlier tests' goroutines, which can come and go under
// a baseline count.
func storeGoroutines() []string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	stacks := strings.Split(string(buf), "\n\n")
	// Each stack opens "goroutine 7 [running]:", the caller's first.
	id := func(stack string) string { return strings.Fields(stack)[1] }
	ours := map[string]bool{id(stacks[0]): true}
	var out []string
	for grew := true; grew; {
		grew = false
		for _, stack := range stacks {
			_, created, ok := strings.Cut(stack, "\ncreated by nlexplain/internal/store.")
			if !ok || strings.HasPrefix(created, "Test") || ours[id(stack)] {
				continue
			}
			if _, creator, _ := strings.Cut(strings.SplitN(created, "\n", 2)[0], " in goroutine "); ours[creator] {
				ours[id(stack)] = true
				out = append(out, stack)
				grew = true
			}
		}
	}
	return out
}

// TestStoreRunsOneGoroutine: a durable store's background work, the
// checkpoints and a degraded episode's recovery, is one goroutine from
// Open to Close, and it runs the checkpoint loop.
func TestStoreRunsOneGoroutine(t *testing.T) {
	settle := func(when string, want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			stacks := storeGoroutines()
			if len(stacks) == want && (want == 0 || strings.Contains(stacks[0], "store.(*durability).loop(")) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: the store runs %d goroutines, want %d running its loop:\n%s", when, len(stacks), want, strings.Join(stacks, "\n\n"))
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
// at once, however long the wait, with the fault never healed and no
// further attempt, and a reopen sees every acked mutation.
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
	if a := st.dur.recAttempts.Load(); a != 1 {
		t.Fatalf("%d recovery attempts, want 1: Close cut the first wait short", a)
	}
	st2 := openDurable(t, dir)
	defer st2.Close()
	checkRecovered(t, st2, acked)
}

// TestRecoveryDelaySequence pins the recovery schedule: base doubled
// per failed attempt, capped at 100 times base.
func TestRecoveryDelaySequence(t *testing.T) {
	ms := time.Millisecond
	want := []time.Duration{ms, 2 * ms, 4 * ms, 8 * ms, 16 * ms, 32 * ms, 64 * ms, 100 * ms, 100 * ms}
	for n, w := range want {
		if got := recoveryDelay(ms, n); got != w {
			t.Fatalf("recoveryDelay(1ms, %d) = %v, want %v", n, got, w)
		}
	}
	for n, w := range []time.Duration{96 * ms, 192 * ms, 300 * ms} {
		if got := recoveryDelay(3*ms, n+5); got != w {
			t.Fatalf("recoveryDelay(3ms, %d) = %v, want %v", n+5, got, w)
		}
	}
}

// TestRecoveryDelayCap checks the delay stays at 100 times base however
// many attempts have failed.
func TestRecoveryDelayCap(t *testing.T) {
	for _, n := range []int{7, 8, 60, 1000} {
		if got := recoveryDelay(time.Second, n); got != 100*time.Second {
			t.Fatalf("recoveryDelay(1s, %d) = %v, want 100s", n, got)
		}
	}
}

// TestRecoveryDelayDefaults: base 0 selects 50ms, so the schedule is
// 50ms doubling to 5s.
func TestRecoveryDelayDefaults(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		n    int
		want time.Duration
	}{{0, 50 * ms}, {1, 100 * ms}, {6, 3200 * ms}, {7, 5 * time.Second}, {100, 5 * time.Second}} {
		if got := recoveryDelay(0, tc.n); got != tc.want {
			t.Fatalf("recoveryDelay(0, %d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// TestStoreDegradedRecoveryRetriesUntilHealed runs recovery on real
// timers with a 1ms RecoveryDelay: the log rotation fails four times,
// so the store heals on the fifth attempt, after at least the
// 1+2+4+8ms of waits between them.
func TestStoreDegradedRecoveryRetriesUntilHealed(t *testing.T) {
	fs := fault.NewInject(vfs.OS, 23)
	st := openInjected(t, t.TempDir(), fs)
	defer st.Close()
	fs.SetRules(
		&fault.Rule{Op: fault.OpWrite, Path: "wal-*.log", Err: syscall.EIO},
		&fault.Rule{Op: fault.OpOpen, Path: "wal-*.log", Count: 3, Err: syscall.EIO}, // fires 4 times
	)
	start := time.Now()
	if _, err := st.Register(mustTable(t, "a", 2)); err == nil {
		t.Fatal("faulted register succeeded")
	}
	waitHealthy(t, st, 5*time.Second)
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Fatalf("recovered after %v, want at least the 15ms of waits", el)
	}
	if a, s := st.dur.recAttempts.Load(), st.dur.recSuccesses.Load(); a != 5 || s != 1 {
		t.Fatalf("%d recovery attempts, %d successes; want 5 and 1", a, s)
	}
}

// TestStoreDegradedRecoveryCloseMidAttempt: Close during a slow failing
// recovery attempt ends recovery after that attempt, without a wait or
// a second attempt, and the store stays degraded.
func TestStoreDegradedRecoveryCloseMidAttempt(t *testing.T) {
	fs := fault.NewInject(vfs.OS, 29)
	st := openInjected(t, t.TempDir(), fs)
	fs.SetRules(
		&fault.Rule{Op: fault.OpWrite, Path: "wal-*.log", Err: syscall.EIO},
		&fault.Rule{Op: fault.OpOpen, Path: "wal-*.log", Count: fault.Sticky, Err: syscall.EIO, Latency: 200 * time.Millisecond},
	)
	if _, err := st.Register(mustTable(t, "a", 2)); err == nil {
		t.Fatal("faulted register succeeded")
	}
	for st.dur.recAttempts.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	st.Close() // the final checkpoint fails on the faulted disk
	if a, s := st.dur.recAttempts.Load(), st.dur.recSuccesses.Load(); a != 1 || s != 0 {
		t.Fatalf("%d recovery attempts, %d successes after Close; want 1 and 0", a, s)
	}
	if degraded, _ := st.Degraded(); !degraded {
		t.Fatal("store left degraded mode without a successful attempt")
	}
}

// TestStoreDegradedRecoveryPreCancelled: once shutdown has begun,
// recovery makes no attempt at all.
func TestStoreDegradedRecoveryPreCancelled(t *testing.T) {
	st := openInjected(t, t.TempDir(), fault.NewInject(vfs.OS, 31))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The loop has exited, so calling its recovery here races nothing.
	if st.dur.recoverDegraded() {
		t.Fatal("recovery reported success after Close")
	}
	if a := st.dur.recAttempts.Load(); a != 0 {
		t.Fatalf("%d recovery attempts after Close, want 0", a)
	}
}

// TestStoreDegradedRecoveryCancelDuringWait exercises the real timer
// path of recovery: cancelling the store's context during an hour-long
// wait after a failed attempt ends the loop goroutine at once, with no
// second attempt and the store still degraded.
func TestStoreDegradedRecoveryCancelDuringWait(t *testing.T) {
	fs := fault.NewInject(vfs.OS, 37)
	st, err := Open(Options{}, DurableOptions{
		Dir: t.TempDir(), CheckpointInterval: -1, CheckpointBytes: -1, FS: fs, RecoveryDelay: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs.SetRules(&fault.Rule{Op: fault.OpWrite, Path: "wal-*.log", Count: fault.Sticky, Err: syscall.EIO})
	if _, err := st.Register(mustTable(t, "a", 2)); err == nil {
		t.Fatal("faulted register succeeded")
	}
	for st.dur.recAttempts.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	st.dur.stop()
	select {
	case <-st.dur.done:
	case <-time.After(5 * time.Second):
		t.Fatal("recovery ignored cancellation during its wait")
	}
	defer st.Close() // the loop has exited; the final checkpoint fails on the sealed disk
	if a, s := st.dur.recAttempts.Load(), st.dur.recSuccesses.Load(); a != 1 || s != 0 {
		t.Fatalf("%d recovery attempts, %d successes; want 1 and 0", a, s)
	}
	if degraded, _ := st.Degraded(); !degraded {
		t.Fatal("store left degraded mode without a successful attempt")
	}
}
