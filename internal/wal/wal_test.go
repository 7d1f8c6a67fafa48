package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"nlexplain/internal/fault"
)

func tmpLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "wal-0000000000000001.log")
}

func mustOpen(t *testing.T, path string) (*WAL, *ScanResult) {
	t.Helper()
	w, res, err := OpenFS(nil, path)
	if err != nil {
		t.Fatalf("OpenFS(%s): %v", path, err)
	}
	return w, res
}

func TestWALAppendScanRoundTrip(t *testing.T) {
	path := tmpLog(t)
	w, res := mustOpen(t, path)
	if len(res.Records) != 0 || res.Truncated != 0 {
		t.Fatalf("fresh log scanned as %+v", res)
	}
	want := []Record{
		{Tag: 1, Data: []byte("alpha")},
		{Tag: 2, Data: nil},
		{Tag: 3, Data: bytes.Repeat([]byte{0xAB}, 1000)},
	}
	for _, r := range want {
		if err := w.Append(r.Tag, r.Data); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, err := Scan(path)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if got.Truncated != 0 {
		t.Fatalf("clean log reported %d truncated bytes", got.Truncated)
	}
	if len(got.Records) != len(want) {
		t.Fatalf("got %d records, want %d", len(got.Records), len(want))
	}
	for i, r := range got.Records {
		if r.Tag != want[i].Tag || !bytes.Equal(r.Data, want[i].Data) {
			t.Fatalf("record %d = {%d %q}, want {%d %q}", i, r.Tag, r.Data, want[i].Tag, want[i].Data)
		}
	}
}

func TestWALReopenAppends(t *testing.T) {
	path := tmpLog(t)
	w, _ := mustOpen(t, path)
	if err := w.Append(1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, res := mustOpen(t, path)
	if len(res.Records) != 1 || string(res.Records[0].Data) != "first" {
		t.Fatalf("reopen scanned %+v", res)
	}
	if err := w2.Append(2, []byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 2 || string(got.Records[1].Data) != "second" {
		t.Fatalf("after reopen-append, scan = %+v", got)
	}
}

// buildLog writes a well-formed log image with n records and returns it.
func buildLog(t *testing.T, dir string, n int) (string, []byte) {
	t.Helper()
	path := filepath.Join(dir, "wal-0000000000000001.log")
	w, _ := mustOpen(t, path)
	for i := 0; i < n; i++ {
		if err := w.Append(byte(i%3+1), []byte(fmt.Sprintf("record-%d-payload", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestWALTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	path, data := buildLog(t, dir, 5)

	// Chop the file at every byte offset inside the final record: the
	// scan must return the first 4 records and report a torn tail
	// (or, exactly at the record boundary, a clean log of 4).
	res, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := res.Valid - int64(headerBytes+len(res.Records[4].Data)+1)
	for cut := lastStart; cut < int64(len(data)); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, got, err := OpenFS(nil, path)
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		if len(got.Records) != 4 {
			t.Fatalf("cut=%d: recovered %d records, want 4", cut, len(got.Records))
		}
		if got.Valid != lastStart {
			t.Fatalf("cut=%d: valid=%d, want %d", cut, got.Valid, lastStart)
		}
		if wantTorn := cut - lastStart; got.Truncated != wantTorn {
			t.Fatalf("cut=%d: truncated=%d, want %d", cut, got.Truncated, wantTorn)
		}
		// The open must have truncated the damage and be appendable.
		if err := w.Append(9, []byte("after-recovery")); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		after, err := Scan(path)
		if err != nil {
			t.Fatalf("cut=%d: rescan: %v", cut, err)
		}
		if len(after.Records) != 5 || after.Records[4].Tag != 9 {
			t.Fatalf("cut=%d: post-recovery log has %d records", cut, len(after.Records))
		}
	}
}

func TestWALMidLogCorruptionIsHardError(t *testing.T) {
	dir := t.TempDir()
	path, data := buildLog(t, dir, 5)

	// Flip one payload byte of the second record: bytes exist after
	// it, so this cannot be a torn tail.
	corrupt := append([]byte(nil), data...)
	second := headerBytes + 1 + len("record-0-payload") + headerBytes + 4
	corrupt[second] ^= 0xFF
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Scan(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Scan of mid-log damage: err=%v, want ErrCorrupt", err)
	}
	if _, _, err := OpenFS(nil, path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open of mid-log damage: err=%v, want ErrCorrupt", err)
	}
}

func TestWALInsaneLengthIsHardError(t *testing.T) {
	dir := t.TempDir()
	path, data := buildLog(t, dir, 2)
	corrupt := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(corrupt[0:], maxRecordBytes+1)
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Scan(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Scan with insane length: err=%v, want ErrCorrupt", err)
	}
}

func TestWALZeroFillTailTruncated(t *testing.T) {
	dir := t.TempDir()
	path, data := buildLog(t, dir, 3)
	padded := append(append([]byte(nil), data...), make([]byte, 64)...)
	if err := os.WriteFile(path, padded, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 3 || res.Truncated != 64 {
		t.Fatalf("zero-fill scan: %d records, %d truncated", len(res.Records), res.Truncated)
	}
}

func TestWALGroupCommitConcurrentAppends(t *testing.T) {
	path := tmpLog(t)
	// A slow device: every fsync of the log takes an extra millisecond,
	// so appenders overlap whatever this box's own fsync costs. Prob is
	// as near to never as a Rule gets: the rule delays, it does not
	// fault.
	slow := fault.NewInject(nil, 1, &fault.Rule{Path: "wal-*.log", Op: fault.OpSync,
		Latency: time.Millisecond, Prob: math.SmallestNonzeroFloat64, Count: fault.Sticky})
	w, _, err := OpenFS(slow, path)
	if err != nil {
		t.Fatalf("OpenFS: %v", err)
	}
	const goroutines, each = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := w.Append(1, []byte(fmt.Sprintf("g%d-i%d", g, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := w.Stats()
	if st.Appends != goroutines*each {
		t.Fatalf("appends=%d, want %d", st.Appends, goroutines*each)
	}
	// Group commit must have batched: far fewer syncs than appends.
	if st.Syncs >= st.Appends {
		t.Fatalf("syncs=%d not batched below appends=%d", st.Syncs, st.Appends)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != goroutines*each {
		t.Fatalf("scan found %d records, want %d", len(res.Records), goroutines*each)
	}
}

// TestWALOpenStartsNoGoroutine: a log is a file and two mutexes; the
// appenders do the committing.
func TestWALOpenStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	w, _ := mustOpen(t, tmpLog(t))
	defer w.Close()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("OpenFS left %d goroutines running, %d before it", after, before)
	}
}

func TestWALClosedAppendFails(t *testing.T) {
	path := tmpLog(t)
	w, _ := mustOpen(t, path)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALSizeTracksAppends(t *testing.T) {
	path := tmpLog(t)
	w, _ := mustOpen(t, path)
	if w.Size() != 0 {
		t.Fatalf("fresh size=%d", w.Size())
	}
	payload := []byte("0123456789")
	if err := w.Append(1, payload); err != nil {
		t.Fatal(err)
	}
	want := int64(headerBytes + 1 + len(payload))
	if w.Size() != want {
		t.Fatalf("size=%d, want %d", w.Size(), want)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != want {
		t.Fatalf("on-disk size=%d, want %d", fi.Size(), want)
	}
}

// TestWALStreamedRecordAmongAppenders streams multi-piece records while
// other goroutines append small ones: every record comes back whole
// from a scan, and the file holds exactly the bytes one-piece appends
// of the same records frame.
func TestWALStreamedRecordAmongAppenders(t *testing.T) {
	path := tmpLog(t)
	w, _ := mustOpen(t, path)
	pieces := streamPieces()
	whole := bytes.Join(pieces, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if err := w.Append(1, []byte(fmt.Sprintf("small-%d-%d", g, i))); err != nil {
					t.Error(err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				if err := w.AppendPayload(2, piecesOf(pieces...)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	st := w.Stats()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 40 || res.Truncated != 0 || st.Appends != 40 {
		t.Fatalf("%d records, %d torn bytes, %+v; want 40 whole records", len(res.Records), res.Truncated, st)
	}
	again := tmpLog(t)
	w2, _ := mustOpen(t, again)
	streamed := 0
	for _, rec := range res.Records {
		if rec.Tag == 2 {
			streamed++
			if !bytes.Equal(rec.Data, whole) {
				t.Fatalf("streamed record of %d bytes is not its pieces", len(rec.Data))
			}
		}
		if err := w2.Append(rec.Tag, rec.Data); err != nil {
			t.Fatal(err)
		}
	}
	w2.Close()
	if streamed != 8 {
		t.Fatalf("%d streamed records, want 8", streamed)
	}
	got, _ := os.ReadFile(path)
	want, _ := os.ReadFile(again)
	if !bytes.Equal(got, want) {
		t.Fatal("streamed records framed other bytes than one-piece appends of them")
	}
}
