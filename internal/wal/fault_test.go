package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"nlexplain/internal/fault"
	"nlexplain/internal/vfs"
)

// TestWALFaultSchedules drives appends into logs whose filesystem
// injects the failure shapes a dying disk produces (EIO, ENOSPC, torn
// short writes, failing fsyncs) and asserts the durability contract:
// every append that returned nil is recoverable, in order, from the
// front of the log after a clean reopen — fault schedules can lose
// unacked tails, never acked records.
func TestWALFaultSchedules(t *testing.T) {
	const logs = "wal-*.log"
	schedules := []struct {
		name string
		rule *fault.Rule
	}{
		{"wal-*.log:write:after=2:err=EIO:sticky", &fault.Rule{Path: logs, Op: fault.OpWrite, AfterN: 2, Err: syscall.EIO, Count: fault.Sticky}},
		{"wal-*.log:write:after=1:err=ENOSPC:sticky", &fault.Rule{Path: logs, Op: fault.OpWrite, AfterN: 1, Err: syscall.ENOSPC, Count: fault.Sticky}},
		{"wal-*.log:write:after=1:err=ENOSPC:short:sticky", &fault.Rule{Path: logs, Op: fault.OpWrite, AfterN: 1, Err: syscall.ENOSPC, ShortWrite: true, Count: fault.Sticky}},
		{"wal-*.log:write:err=EIO:short:sticky", &fault.Rule{Path: logs, Op: fault.OpWrite, Err: syscall.EIO, ShortWrite: true, Count: fault.Sticky}},
		{"wal-*.log:sync:after=2:err=EIO:sticky", &fault.Rule{Path: logs, Op: fault.OpSync, AfterN: 2, Err: syscall.EIO, Count: fault.Sticky}},
		{"wal-*.log:sync:err=ENOSPC:sticky", &fault.Rule{Path: logs, Op: fault.OpSync, Err: syscall.ENOSPC, Count: fault.Sticky}},
	}
	for _, tc := range schedules {
		t.Run(tc.name, func(t *testing.T) {
			path := tmpLog(t)
			fs := fault.NewInject(vfs.OS, 1, tc.rule)
			w, res, err := OpenFS(fs, path)
			if err != nil {
				t.Fatalf("OpenFS: %v", err)
			}
			if len(res.Records) != 0 {
				t.Fatalf("fresh log scanned %d records", len(res.Records))
			}

			// Append until the schedule trips; every nil return is acked.
			var acked [][]byte
			for i := 0; i < 32; i++ {
				payload := []byte("rec-" + strconv.Itoa(i))
				if err := w.Append(byte(i%7)+1, payload); err != nil {
					break
				}
				acked = append(acked, payload)
			}
			if len(acked) == 32 {
				t.Fatal("fault schedule never fired")
			}
			if fs.Stats().Total() == 0 {
				t.Fatal("injector reported zero faults")
			}
			w.Close() // sticky error: close may fail, must not panic

			// Recover on the clean OS filesystem: acked records must be
			// the front of the valid prefix, byte for byte.
			w2, res2, err := OpenFS(nil, path)
			if err != nil {
				t.Fatalf("clean reopen: %v", err)
			}
			defer w2.Close()
			if len(res2.Records) < len(acked) {
				t.Fatalf("recovered %d records, acked %d", len(res2.Records), len(acked))
			}
			for i, want := range acked {
				if got := res2.Records[i].Data; !bytes.Equal(got, want) {
					t.Fatalf("record %d = %q, want %q", i, got, want)
				}
			}
			// The log is live again: a post-recovery append lands durably.
			if err := w2.Append(0x7F, []byte("healed")); err != nil {
				t.Fatalf("post-recovery append: %v", err)
			}
		})
	}
}

// TestWALLyingSyncStaysConsistent: an fsync that reports success
// without durability ("lie") cannot be detected by the WAL — but the
// in-process file contents still parse as a valid log, so recovery
// never sees a corrupt image, only (at worst) a shorter one.
func TestWALLyingSyncStaysConsistent(t *testing.T) {
	path := tmpLog(t)
	fs := fault.NewInject(vfs.OS, 1, &fault.Rule{Path: "wal-*.log", Op: fault.OpSync, SilentSync: true, Count: fault.Sticky})
	w, _, err := OpenFS(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := w.Append(1, []byte("silent")); err != nil {
			t.Fatalf("append under lying fsync: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if fs.Stats().Faults[fault.OpSync] == 0 {
		t.Fatal("lying-sync rule never fired")
	}
	res, err := Scan(path)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(res.Records) != 8 || res.Truncated != 0 {
		t.Fatalf("lying-sync log scanned as %d records, %d torn bytes", len(res.Records), res.Truncated)
	}
}

// tornWALImage builds a log through an injector whose short-write rule
// tears the final record, returning the on-disk bytes. Shared with the
// replay fuzzer's seed corpus.
func tornWALImage(tb testing.TB) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "wal-0000000000000001.log")
	fs := fault.NewInject(vfs.OS, 1,
		&fault.Rule{Path: "wal-*.log", Op: fault.OpWrite, AfterN: 2, Err: syscall.ENOSPC, ShortWrite: true, Count: fault.Sticky})
	w, _, err := OpenFS(fs, path)
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	for ; n < 8; n++ {
		if err := w.Append(byte(n)+1, []byte(fmt.Sprintf("payload-%d-%s", n, bytes.Repeat([]byte{0x42}, 64)))); err != nil {
			break
		}
	}
	if n == 8 {
		tb.Fatal("short-write rule never fired")
	}
	w.Close()
	data, err := vfs.OS.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	if int64(len(data)) == 0 {
		tb.Fatal("torn image is empty")
	}
	return data
}

// TestWALTornImageRecovery: the injector-produced torn image recovers
// to exactly the acked records with the torn fragment truncated.
func TestWALTornImageRecovery(t *testing.T) {
	data := tornWALImage(t)
	recs, valid, err := parse(data)
	if err != nil {
		t.Fatalf("parse rejected torn image: %v", err)
	}
	if valid >= int64(len(data)) {
		t.Fatalf("image not actually torn: valid=%d len=%d", valid, len(data))
	}
	if len(recs) != 2 {
		t.Fatalf("torn image parsed %d records, want the 2 acked", len(recs))
	}
}

// gateFS hands out files whose Sync first runs hook with the 1-based
// count of file fsyncs issued through the FS so far; the hook may park
// the fsync or fail it.
type gateFS struct {
	vfs.FS
	syncs atomic.Int32
	hook  func(n int) error
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, fs: g}, nil
}

type gateFile struct {
	vfs.File
	fs *gateFS
}

func (f *gateFile) Sync() error {
	if err := f.fs.hook(int(f.fs.syncs.Add(1))); err != nil {
		return err
	}
	return f.File.Sync()
}

// parkedLeader opens a log whose first fsync parks until the returned
// gate is closed and whose second fsync returns secondErr, starts
// appender 0 and waits until it is parked in that first fsync, then
// starts appenders 1..7 and waits until all of them have buffered
// behind it. errs[i] receives appender i's result.
func parkedLeader(t *testing.T, path string, secondErr error) (w *WAL, fs *gateFS, gate chan struct{}, errs []chan error) {
	t.Helper()
	gate = make(chan struct{})
	entered := make(chan struct{})
	fs = &gateFS{FS: vfs.OS, hook: func(n int) error {
		switch n {
		case 1:
			close(entered)
			<-gate
		case 2:
			return secondErr
		}
		return nil
	}}
	w, _, err := OpenFS(fs, path)
	if err != nil {
		t.Fatalf("OpenFS: %v", err)
	}
	const appenders = 8
	errs = make([]chan error, appenders)
	start := func(i int) {
		errs[i] = make(chan error, 1)
		go func() { errs[i] <- w.Append(1, []byte{'r', byte('0' + i)}) }()
	}
	start(0)
	<-entered
	for i := 1; i < appenders; i++ {
		start(i)
	}
	const framed = headerBytes + 1 + 2
	deadline := time.Now().Add(10 * time.Second)
	for w.Size() < appenders*framed {
		if time.Now().After(deadline) {
			t.Fatalf("followers never buffered: size=%d", w.Size())
		}
		time.Sleep(100 * time.Microsecond)
	}
	return w, fs, gate, errs
}

// TestWALFaultFollowersShareOneSync: seven appends that buffer while
// the leader's fsync is in flight are covered by one more fsync, not
// seven.
func TestWALFaultFollowersShareOneSync(t *testing.T) {
	path := tmpLog(t)
	w, _, gate, errs := parkedLeader(t, path, nil)
	close(gate)
	for i, c := range errs {
		if err := <-c; err != nil {
			t.Errorf("appender %d: %v", i, err)
		}
	}
	if st := w.Stats(); st.Syncs != 2 || st.Appends != 8 {
		t.Fatalf("stats %+v, want 8 appends in 2 syncs", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 8 {
		t.Fatalf("scan found %d records, want 8", len(res.Records))
	}
}

// TestWALFaultFailedSyncFailsItsBatch: the fsync that would have
// covered the seven followers fails. The leader, already covered, is
// acked; every follower gets the error; the error is sticky; and the
// acked record is there after a reopen.
func TestWALFaultFailedSyncFailsItsBatch(t *testing.T) {
	path := tmpLog(t)
	w, fs, gate, errs := parkedLeader(t, path, syscall.EIO)
	close(gate)
	if err := <-errs[0]; err != nil {
		t.Fatalf("leader: %v", err)
	}
	for i, c := range errs[1:] {
		if err := <-c; !errors.Is(err, syscall.EIO) {
			t.Errorf("follower %d: err=%v, want EIO", i+1, err)
		}
	}
	if err := w.Append(1, []byte("r8")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append after failed fsync: err=%v, want the sticky EIO", err)
	}
	if n := fs.syncs.Load(); n != 2 {
		t.Fatalf("%d fsyncs issued, want 2: the sticky error must fail fast", n)
	}
	w.Close() // sticky error: close may fail, must not panic

	w2, res, err := OpenFS(nil, path)
	if err != nil {
		t.Fatalf("clean reopen: %v", err)
	}
	defer w2.Close()
	if len(res.Records) < 1 || string(res.Records[0].Data) != "r0" {
		t.Fatalf("recovered %d records, want the leader's r0 first", len(res.Records))
	}
}

// TestWALFaultLoneAppenderSyncsEveryAppend: with nobody to share with,
// each append pays exactly one fsync.
func TestWALFaultLoneAppenderSyncsEveryAppend(t *testing.T) {
	w, _, err := OpenFS(nil, tmpLog(t))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 100; i++ {
		if err := w.Append(1, []byte("solo")); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.Stats(); st.Syncs != 100 {
		t.Fatalf("syncs=%d after 100 lone appends, want 100", st.Syncs)
	}
}

// piecesOf is the payload that emits pieces in order.
func piecesOf(pieces ...[]byte) Payload {
	return func(put func([]byte) error) error {
		for _, p := range pieces {
			if err := put(p); err != nil {
				return err
			}
		}
		return nil
	}
}

// streamPieces is a four-piece payload, each piece its own byte.
func streamPieces() [][]byte {
	out := make([][]byte, 4)
	for i := range out {
		out[i] = bytes.Repeat([]byte{byte('a' + i)}, 1000)
	}
	return out
}

// TestWALTornStreamedRecord fails the log's Write at each write of a
// streamed record in turn — its header, then each piece — tearing it
// halfway. The append returns the error, the WAL stays failed once the
// disk heals, and a clean reopen truncates the record as a torn tail,
// keeping every record acked before it. A payload that emits other
// bytes on its second pass fails the same way, and never writes past
// the length its header gave.
func TestWALTornStreamedRecord(t *testing.T) {
	acked := [][]byte{[]byte("first"), []byte("second"), []byte("third")}
	pieces := streamPieces()
	check := func(t *testing.T, path string, w *WAL, fs *fault.InjectFS, appendErr, want error) {
		t.Helper()
		if !errors.Is(appendErr, want) {
			t.Fatalf("streamed append: %v, want %v", appendErr, want)
		}
		fs.Heal()
		if err := w.Append(9, []byte("after")); !errors.Is(err, want) {
			t.Fatalf("append after the failed stream: %v, want the sticky %v", err, want)
		}
		w.Close()
		w2, res, err := OpenFS(nil, path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer w2.Close()
		if res.Truncated == 0 {
			t.Fatal("reopen found no torn tail")
		}
		if len(res.Records) != len(acked) {
			t.Fatalf("reopen kept %d records, want the %d acked", len(res.Records), len(acked))
		}
		for i, rec := range res.Records {
			if !bytes.Equal(rec.Data, acked[i]) {
				t.Fatalf("record %d = %q, want %q", i, rec.Data, acked[i])
			}
		}
	}
	open := func(t *testing.T, rules ...*fault.Rule) (string, *WAL, *fault.InjectFS) {
		t.Helper()
		path := tmpLog(t)
		fs := fault.NewInject(vfs.OS, 1, rules...)
		w, _, err := OpenFS(fs, path)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range acked {
			if err := w.Append(1, p); err != nil {
				t.Fatal(err)
			}
		}
		return path, w, fs
	}
	for k := 0; k <= len(pieces); k++ {
		t.Run(fmt.Sprintf("write-%d", k), func(t *testing.T) {
			// One Write per acked record, then the header, then the
			// pieces.
			path, w, fs := open(t, &fault.Rule{Path: "wal-*.log", Op: fault.OpWrite, AfterN: len(acked) + k,
				Err: syscall.EIO, ShortWrite: true, Count: fault.Sticky})
			err := w.AppendPayload(2, piecesOf(pieces...))
			if n := fs.Stats().Faults[fault.OpWrite]; n != 1 {
				t.Fatalf("%d write faults, want 1", n)
			}
			check(t, path, w, fs, err, syscall.EIO)
		})
	}
	for name, second := range map[string][][]byte{
		"changed": {pieces[0], pieces[1], pieces[3], pieces[2]},
		"longer":  {pieces[0], pieces[1], pieces[2], pieces[0], pieces[3]},
		"shorter": {pieces[0], pieces[1]},
	} {
		t.Run(name, func(t *testing.T) {
			path, w, fs := open(t)
			passes := 0
			err := w.AppendPayload(2, func(put func([]byte) error) error {
				passes++
				if passes == 1 {
					return piecesOf(pieces...)(put)
				}
				return piecesOf(second...)(put)
			})
			check(t, path, w, fs, err, errPayloadChanged)
		})
	}
}
