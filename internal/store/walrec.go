package store

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// WAL record tags. The write-ahead log frames every catalog mutation
// as one tagged record (see internal/wal for the framing). A register
// record's payload is a segment body; the other payload codecs below
// are the store's own schema on top of the framing, all integers
// uvarint and all strings length-prefixed so cells may legally contain
// any byte.
const (
	// tagAppend carries only the appended rows plus the successor
	// snapshot's generation and content-hash version (the base rows
	// are already durable via earlier records or a segment).
	tagAppend = 0x02
	// tagDrop carries the dropped name and the generation of the
	// snapshot that was dropped, which is what gen-gated replay
	// compares against.
	tagDrop = 0x03
	// tagNoop carries no payload: degraded-mode recovery
	// appends one to a freshly rotated log as proof the log accepts
	// durable writes before lifting read-only mode. Replay skips it.
	tagNoop = 0x04
	// tagRegister carries a whole table as a segment body — name, the
	// assigned generation, the content-hash version, the header, each
	// column's cells, a spelling written out where it first appears
	// and repeated by its number after that — and an empty footer,
	// streamed into the log as segment.EncodeTable emits it. 0x01 was
	// a row-major register record; nothing reads it, so a log holding
	// one fails recovery naming the tag.
	tagRegister = 0x05
)

var errRecTruncated = errors.New("store: truncated wal record payload")

// appendRec is the decoded form of a tagAppend payload.
type appendRec struct {
	name    string
	gen     uint64
	version string
	width   int
	rows    [][]string
}

// dropRec is the decoded form of a tagDrop payload.
type dropRec struct {
	name string
	gen  uint64
}

func encodeAppend(name string, gen uint64, version string, width int, rows [][]string) []byte {
	b := recString(nil, name)
	b = binary.AppendUvarint(b, gen)
	b = recString(b, version)
	b = binary.AppendUvarint(b, uint64(width))
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, row := range rows {
		for _, cell := range row {
			b = recString(b, cell)
		}
	}
	return b
}

func decodeAppend(data []byte) (appendRec, error) {
	var r appendRec
	d := recDecoder{buf: data}
	r.name = d.string()
	r.gen = d.uvarint()
	r.version = d.string()
	r.width = int(d.count())
	nrows := int(d.count())
	if d.err != nil || nrows == 0 {
		return r, d.finish()
	}
	// Every encoded cell costs at least one byte, so a cell count
	// beyond the remaining payload is framing damage, not a big batch.
	if r.width <= 0 || int64(nrows)*int64(r.width) > int64(len(d.buf)) {
		return r, fmt.Errorf("store: implausible %dx%d cell block in wal record", nrows, r.width)
	}
	cells := make([]string, nrows*r.width)
	r.rows = make([][]string, nrows)
	for i := range r.rows {
		r.rows[i] = cells[i*r.width : (i+1)*r.width : (i+1)*r.width]
		for c := range r.rows[i] {
			r.rows[i][c] = d.string()
		}
	}
	return r, d.finish()
}

func encodeDrop(name string, gen uint64) []byte {
	b := recString(nil, name)
	return binary.AppendUvarint(b, gen)
}

func decodeDrop(data []byte) (dropRec, error) {
	var r dropRec
	d := recDecoder{buf: data}
	r.name = d.string()
	r.gen = d.uvarint()
	return r, d.finish()
}

// recDecoder walks a record payload, latching the first framing error.
type recDecoder struct {
	buf []byte
	err error
}

func (d *recDecoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("store: %d trailing bytes in wal record", len(d.buf))
	}
	return nil
}

func (d *recDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = errRecTruncated
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// count reads a uvarint sizing an allocation, bounding it by the
// remaining payload (every counted element costs at least one byte).
func (d *recDecoder) count() uint64 {
	v := d.uvarint()
	if d.err == nil && v > uint64(len(d.buf)) {
		d.err = fmt.Errorf("store: implausible count %d in wal record", v)
		return 0
	}
	return v
}

func (d *recDecoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)) {
		d.err = errRecTruncated
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func recString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}
