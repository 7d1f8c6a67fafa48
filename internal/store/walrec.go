package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// WAL record tags. The write-ahead log frames every catalog mutation
// as one tagged record (see internal/wal for the framing); these
// payload codecs are the store's own schema on top of it, all
// integers uvarint and all strings length-prefixed so cells may
// legally contain any byte.
const (
	// tagRegister carries a whole table: name, the assigned
	// generation, the content-hash version, the header and every raw
	// cell row.
	tagRegister = 0x01
	// tagAppend carries only the appended rows plus the successor
	// snapshot's generation and content-hash version (the base rows
	// are already durable via earlier records or a segment).
	tagAppend = 0x02
	// tagDrop carries the dropped name and the generation of the
	// snapshot that was dropped, which is what gen-gated replay
	// compares against.
	tagDrop = 0x03
	// tagNoop carries no payload: the degraded-mode recovery loop
	// appends one to a freshly rotated log as proof the log accepts
	// durable writes before lifting read-only mode. Replay skips it.
	tagNoop = 0x04
)

var errRecTruncated = errors.New("store: truncated wal record payload")

// registerRec is the decoded form of a tagRegister payload.
type registerRec struct {
	name    string
	gen     uint64
	version string
	columns []string
	rows    [][]string
}

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

// encodeRegister frames a whole table. The payload of a big table runs
// to megabytes and is built at the peak-memory moment of a registration,
// so its length is worked out first and the buffer made once.
func encodeRegister(name string, gen uint64, version string, columns []string, rows [][]string) []byte {
	size := recStringLen(name) + recStringLen(version) + 3*binary.MaxVarintLen64 // gen and the two counts
	for _, c := range columns {
		size += recStringLen(c)
	}
	for _, row := range rows {
		for _, cell := range row {
			size += recStringLen(cell)
		}
	}
	b := recString(make([]byte, 0, size), name)
	b = binary.AppendUvarint(b, gen)
	b = recString(b, version)
	b = binary.AppendUvarint(b, uint64(len(columns)))
	for _, c := range columns {
		b = recString(b, c)
	}
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, row := range rows {
		for _, cell := range row {
			b = recString(b, cell)
		}
	}
	return b
}

func decodeRegister(data []byte) (registerRec, error) {
	var r registerRec
	d := recDecoder{buf: data}
	r.name = d.string()
	r.gen = d.uvarint()
	r.version = d.string()
	ncols := int(d.count())
	if d.err != nil {
		return r, d.err
	}
	r.columns = make([]string, 0, ncols)
	for i := 0; i < ncols && d.err == nil; i++ {
		r.columns = append(r.columns, d.string())
	}
	nrows := int(d.count())
	if d.err != nil {
		return r, d.err
	}
	r.rows = decodeRows(&d, nrows, ncols)
	return r, d.finish()
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
	if d.err != nil {
		return r, d.err
	}
	r.rows = decodeRows(&d, nrows, r.width)
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

func decodeRows(d *recDecoder, nrows, ncols int) [][]string {
	if d.err != nil || nrows == 0 {
		return nil
	}
	if ncols <= 0 {
		d.err = fmt.Errorf("store: wal record with %d rows but %d columns", nrows, ncols)
		return nil
	}
	// Every encoded cell costs at least one byte, so a cell count
	// beyond the remaining payload is framing damage, not a big table.
	if int64(nrows)*int64(ncols) > int64(len(d.buf)) {
		d.err = fmt.Errorf("store: implausible %dx%d cell block in wal record", nrows, ncols)
		return nil
	}
	rows := make([][]string, nrows)
	cells := make([]string, nrows*ncols)
	for r := range rows {
		rows[r] = cells[r*ncols : (r+1)*ncols : (r+1)*ncols]
		for c := 0; c < ncols; c++ {
			rows[r][c] = d.string()
		}
		if d.err != nil {
			return nil
		}
	}
	return rows
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

// recStringLen is the encoded size of s: its uvarint length prefix and
// its bytes.
func recStringLen(s string) int {
	return (bits.Len64(uint64(len(s))|1)+6)/7 + len(s)
}

func recString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}
