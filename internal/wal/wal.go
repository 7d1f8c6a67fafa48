// Package wal implements the append-only write-ahead log under the
// versioned table store's durability layer. One WAL value manages one
// log file; rotation (switching to a fresh file at checkpoint time) is
// the caller's job, as is assigning meaning to record tags.
//
// On-disk framing, in the <checksum><tag><encoded-data> style:
//
//	<len uint32 LE> <crc32c uint32 LE> <tag byte> <payload>
//
// len counts the tag byte plus the payload (so len >= 1); the CRC32C
// (Castagnoli) covers the same tag+payload span. The framing gives the
// recovery scan an unambiguous policy: a record that runs past the end
// of the file, a half-written header, or a checksum failure on the
// final record are all torn tails from a crash mid-append and are
// truncated away; a checksum failure with intact bytes after it cannot
// be a torn write and is reported as ErrCorrupt.
//
// Appends are durable when they return: each append blocks until an
// fsync covering its record has completed. An appender that finds no
// fsync in flight issues one at once; appends that buffer while one is
// in flight are all covered by the next, issued the moment the first
// returns — group commit with the first waiter as leader, so fsyncs
// are shared exactly when appenders overlap. The buffer lock is never
// held across the disk flush.
//
// A payload reaches the log as a Payload, which emits it in pieces.
// One piece is copied into the buffer above and written with the
// records around it. A payload of several pieces — a big table's
// register record — is never held whole: a first pass over its pieces
// computes the length and the CRC32C that head it, then its appender
// waits to be leader and writes the buffered records, the header and
// the pieces one by one, running the payload a second time, and one
// fsync covers them all. Records that arrive meanwhile buffer for the
// next leader. The bytes on disk are the ones a one-piece append of
// the same payload writes.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"nlexplain/internal/vfs"
)

// ErrCorrupt reports checksum or framing damage before the final
// record of a log — damage that truncating a torn tail cannot explain.
// Recovery must fail hard rather than silently drop acknowledged
// mutations.
var ErrCorrupt = errors.New("wal: corrupt record before end of log")

// ErrClosed is returned by appends against a closed WAL.
var ErrClosed = errors.New("wal: closed")

// errPayloadChanged fails a streamed record whose payload emitted other
// bytes the second time than the first.
var errPayloadChanged = errors.New("wal: payload changed between its two passes")

const (
	headerBytes = 8 // uint32 length + uint32 crc32c
	// maxRecordBytes bounds a single record's tag+payload span. A
	// length field beyond it is framing damage, not a big record.
	maxRecordBytes = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one decoded log record: a tag byte naming the mutation
// kind and the caller-encoded payload. Data aliases the scan buffer.
type Record struct {
	Tag  byte
	Data []byte
}

// ScanResult reports what a Scan found: the decoded records, the byte
// length of the valid prefix, and how many torn-tail bytes follow it.
type ScanResult struct {
	Records []Record
	// Valid is the length in bytes of the prefix holding the decoded
	// records. Appending may resume at this offset after truncation.
	Valid int64
	// Truncated is the number of torn-tail bytes past Valid (zero for
	// a cleanly closed log).
	Truncated int64
}

// Scan reads and verifies every record of the log file at path without
// opening it for writing. Torn tails are reported, not errors;
// mid-log damage is ErrCorrupt.
func Scan(path string) (*ScanResult, error) {
	return ScanFS(vfs.OS, path)
}

// ScanFS is Scan reading through fsys (nil means the OS passthrough).
func ScanFS(fsys vfs.FS, path string) (*ScanResult, error) {
	data, err := vfs.Or(fsys).ReadFile(path)
	if err != nil {
		return nil, err
	}
	recs, valid, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &ScanResult{
		Records:   recs,
		Valid:     valid,
		Truncated: int64(len(data)) - valid,
	}, nil
}

// parse decodes the valid record prefix of a log image, applying the
// torn-tail-versus-corruption policy described in the package comment.
func parse(data []byte) (recs []Record, valid int64, err error) {
	i := 0
	for {
		rest := len(data) - i
		if rest == 0 {
			return recs, int64(i), nil
		}
		if rest < headerBytes {
			// Half-written header: torn tail.
			return recs, int64(i), nil
		}
		n := binary.LittleEndian.Uint32(data[i:])
		sum := binary.LittleEndian.Uint32(data[i+4:])
		if n == 0 {
			// A record always carries at least its tag byte; a zero
			// length is fill from an interrupted header write.
			return recs, int64(i), nil
		}
		if n > maxRecordBytes {
			return nil, 0, fmt.Errorf("%w: record length %d at offset %d", ErrCorrupt, n, i)
		}
		end := i + headerBytes + int(n)
		if end > len(data) {
			// Record body ran past EOF: torn tail.
			return recs, int64(i), nil
		}
		body := data[i+headerBytes : end]
		if crc32.Checksum(body, castagnoli) != sum {
			if end == len(data) {
				// The final record's bytes are all present but the
				// checksum fails: a torn (partially persisted) tail
				// write. Truncate it.
				return recs, int64(i), nil
			}
			return nil, 0, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, i)
		}
		recs = append(recs, Record{Tag: body[0], Data: body[1:]})
		i = end
	}
}

// Stats is a point-in-time snapshot of a WAL's counters.
type Stats struct {
	Appends       uint64 // records appended
	AppendedBytes uint64 // framed bytes appended (headers included)
	Syncs         uint64 // fsyncs issued; < Appends when appenders overlapped
	Size          int64  // current file size in bytes, buffered included
}

// WAL is an open, appendable log file with group-commit fsync.
type WAL struct {
	// mu guards the record buffer and sequencing state. It is never
	// held across disk I/O: syncTo takes the buffer under mu, then
	// writes and fsyncs it with only syncMu held, so appenders keep
	// buffering while a sync is in flight.
	mu        sync.Mutex
	fs        vfs.FS
	f         vfs.File
	buf       []byte // pending framed records not yet written to f
	writeSeq  uint64 // records accepted into buf
	syncedSeq uint64 // records covered by a completed fsync
	size      int64  // file size including buffered bytes
	err       error  // sticky first failure
	closed    bool

	// syncMu admits one flush+fsync pass at a time. Appenders queued
	// on it are the next batch: the first one through covers them all.
	syncMu sync.Mutex

	appends       atomic.Uint64
	appendedBytes atomic.Uint64
	syncs         atomic.Uint64
}

// Open opens path for appending, creating it if absent. Any existing
// records are scanned and returned; a torn tail is truncated off the
// file (and fsynced) before the WAL accepts appends, so the file never
// grows past damage.
//
// The second parameter is ignored. It was a group-commit window; its
// one remaining caller is benchmark/trace.go, which this repository's
// feature PRs may not edit. It goes when Open and OpenFS collapse.
func Open(path string, _ time.Duration) (*WAL, *ScanResult, error) {
	return OpenFS(vfs.OS, path)
}

// OpenFS is Open performing all I/O through fsys (nil means the OS
// passthrough). The durability layer threads its fault-injection
// filesystem through here.
func OpenFS(fsys vfs.FS, path string) (*WAL, *ScanResult, error) {
	fsys = vfs.Or(fsys)
	res, err := ScanFS(fsys, path)
	if errors.Is(err, os.ErrNotExist) {
		res, err = &ScanResult{}, nil
	}
	if err != nil {
		return nil, nil, err
	}
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if res.Truncated > 0 {
		if err := f.Truncate(res.Valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("truncating torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(res.Valid, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &WAL{fs: fsys, f: f, size: res.Valid}, res, nil
}

// Payload emits a record's payload: it calls put with each piece in
// order and returns put's first error. A payload of more than one
// piece is emitted twice, and must emit the same bytes both times; the
// second time it holds the log's write turn, so it must not append to
// the same WAL. A piece may be reused once put has returned, but the
// last must stay as it is after the payload returns: a payload of one
// piece is copied into the log's buffer then.
type Payload func(put func([]byte) error) error

// Bytes is the payload of one piece, data.
func Bytes(data []byte) Payload {
	return func(put func([]byte) error) error { return put(data) }
}

// Append frames tag+data, appends the record, and blocks until an
// fsync covers it: AppendPayload of the one piece data.
func (w *WAL) Append(tag byte, data []byte) error {
	return w.AppendPayload(tag, Bytes(data))
}

// AppendPayload frames tag and the payload p emits, appends the
// record, and blocks until an fsync covers it. Safe for concurrent
// use; appends that buffer while an fsync is in flight share the next
// one. A payload of one piece is buffered like any small record; one
// of several is written piece by piece by its appender as leader.
func (w *WAL) AppendPayload(tag byte, p Payload) error {
	fr := framer{n: 1, sum: crc32.Checksum([]byte{tag}, castagnoli)}
	if err := p(fr.add); err != nil {
		return err
	}
	if fr.n > maxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds limit", fr.n)
	}
	var hdr [headerBytes + 1]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(fr.n))
	binary.LittleEndian.PutUint32(hdr[4:], fr.sum)
	hdr[8] = tag
	if fr.pieces > 1 {
		return w.stream(hdr[:], fr, p)
	}

	w.mu.Lock()
	if err := w.usable(); err != nil {
		w.mu.Unlock()
		return err
	}
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, fr.last...)
	seq := w.accept(fr.n)
	w.mu.Unlock()

	return w.syncTo(seq)
}

// framer measures and checksums a payload as it is emitted.
type framer struct {
	n      int    // tag byte plus the payload so far
	sum    uint32 // CRC32C of the same span
	pieces int
	last   []byte // the latest piece
}

func (fr *framer) add(p []byte) error {
	fr.n += len(p)
	fr.sum = crc32.Update(fr.sum, castagnoli, p)
	fr.pieces++
	fr.last = p
	return nil
}

// usable reports why the WAL takes no more records, if it does not.
// Called with mu held.
func (w *WAL) usable() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return ErrClosed
	}
	return nil
}

// accept sequences a record whose length field is n and counts it,
// returning its sequence number. Called with mu held.
func (w *WAL) accept(n int) uint64 {
	w.writeSeq++
	w.size += int64(headerBytes + n)
	w.appends.Add(1)
	w.appendedBytes.Add(uint64(headerBytes + n))
	return w.writeSeq
}

// stream appends a record of several pieces, framed by hdr and
// measured by fr, as group-commit leader: behind whatever was
// buffered before it, it writes the header and then the pieces as p
// emits them again, and one fsync covers the lot. A write that fails,
// or a second pass that emits other bytes than the first, leaves a
// torn tail and fails the WAL for good.
func (w *WAL) stream(hdr []byte, fr framer, p Payload) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()

	w.mu.Lock()
	if err := w.usable(); err != nil {
		w.mu.Unlock()
		return err
	}
	pending := w.buf
	w.buf = nil
	target := w.accept(fr.n)
	f := w.f
	w.mu.Unlock()

	var err error
	if len(pending) > 0 {
		_, err = f.Write(pending)
	}
	if err == nil {
		_, err = f.Write(hdr)
	}
	if err == nil {
		again := framer{n: 1, sum: crc32.Checksum(hdr[8:], castagnoli)}
		err = p(func(piece []byte) error {
			if again.n+len(piece) > fr.n {
				// Never past the length in the header: what was
				// written stays one torn record, not a record with
				// bytes after it.
				return errPayloadChanged
			}
			again.add(piece)
			_, err := f.Write(piece)
			return err
		})
		if err == nil && (again.n != fr.n || again.sum != fr.sum) {
			err = errPayloadChanged
		}
	}
	if err == nil {
		err = f.Sync()
	}
	return w.synced(target, err)
}

// syncTo makes the fsync horizon reach at least seq. Whoever holds
// syncMu is the leader: it writes and fsyncs everything buffered so
// far, with mu released, so the appenders queued behind it find
// themselves covered (or failed) and return without touching the disk.
func (w *WAL) syncTo(seq uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()

	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.syncedSeq >= seq {
		w.mu.Unlock()
		return nil
	}
	target := w.writeSeq
	pending := w.buf
	w.buf = nil
	f := w.f
	w.mu.Unlock()

	var err error
	if len(pending) > 0 {
		_, err = f.Write(pending)
	}
	if err == nil {
		err = f.Sync()
	}
	return w.synced(target, err)
}

// synced ends a leader's pass that wrote records through target: it
// moves the fsync horizon there, or makes err the WAL's sticky
// failure, which this batch's appenders, queued on syncMu, and every
// later append find and return.
func (w *WAL) synced(target uint64, err error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.err = err
		return err
	}
	if target > w.syncedSeq {
		w.syncedSeq = target
	}
	w.syncs.Add(1)
	return nil
}

// Close flushes and fsyncs all pending records, then closes the file.
// Further appends fail with ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	seq := w.writeSeq
	w.mu.Unlock()

	err := w.syncTo(seq)
	w.mu.Lock()
	f := w.f
	w.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Size returns the current log size in bytes, buffered appends
// included.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Stats returns a snapshot of the WAL's counters.
func (w *WAL) Stats() Stats {
	return Stats{
		Appends:       w.appends.Load(),
		AppendedBytes: w.appendedBytes.Load(),
		Syncs:         w.syncs.Load(),
		Size:          w.Size(),
	}
}
