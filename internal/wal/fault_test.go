package wal

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"

	"nlexplain/internal/fault"
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
			fs := fault.NewInject(fault.OS, 1, tc.rule)
			w, res, err := OpenFS(fs, path, 0)
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
			w2, res2, err := Open(path, 0)
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
	fs := fault.NewInject(fault.OS, 1, &fault.Rule{Path: "wal-*.log", Op: fault.OpSync, SilentSync: true, Count: fault.Sticky})
	w, _, err := OpenFS(fs, path, 0)
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
	fs := fault.NewInject(fault.OS, 1,
		&fault.Rule{Path: "wal-*.log", Op: fault.OpWrite, AfterN: 2, Err: syscall.ENOSPC, ShortWrite: true, Count: fault.Sticky})
	w, _, err := OpenFS(fs, path, 0)
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
	data, err := fault.OS.ReadFile(path)
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
