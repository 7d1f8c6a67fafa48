package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"nlexplain/internal/table"
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

// registerRec is the decoded head of a tagRegister payload: everything
// but the cells, which buildTable streams into a table once replay has
// decided, from the head, that the record still applies.
type registerRec struct {
	name    string
	gen     uint64
	version string
	columns []string
	nrows   int
	cells   recDecoder // positioned at the first cell
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

// encodeRegister frames a whole table, its cells row-major as the
// table spells them. The payload of a big table runs to megabytes and
// is built at the peak-memory moment of a registration, so its length
// is worked out first and the buffer made once.
func encodeRegister(name string, gen uint64, version string, t *table.Table) []byte {
	nrows, ncols := t.NumRows(), t.NumCols()
	size := recStringLen(name) + recStringLen(version) + 3*binary.MaxVarintLen64 // gen and the two counts
	for c := 0; c < ncols; c++ {
		size += recStringLen(t.Column(c))
		dict, codes := t.ColumnDictionary(c)
		for _, code := range codes {
			size += recStringLen(dict.Entry(int(code)))
		}
	}
	b := recString(make([]byte, 0, size), name)
	b = binary.AppendUvarint(b, gen)
	b = recString(b, version)
	b = binary.AppendUvarint(b, uint64(ncols))
	for c := 0; c < ncols; c++ {
		b = recString(b, t.Column(c))
	}
	b = binary.AppendUvarint(b, uint64(nrows))
	for r := 0; r < nrows; r++ {
		for c := 0; c < ncols; c++ {
			b = recString(b, t.Raw(r, c))
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
	r.nrows = int(d.count())
	if d.err == nil && r.nrows > 0 {
		d.checkCells(r.nrows, ncols)
	}
	r.cells = d
	return r, d.err
}

// buildTable streams the record's cells into a table: no row is
// materialised, and a spelling a column has seen is not parsed again.
func (r *registerRec) buildTable() (*table.Table, error) {
	b, err := table.NewBuilder(r.name, r.columns, r.nrows)
	if err != nil {
		return nil, err
	}
	d := r.cells
	for row := 0; row < r.nrows && d.err == nil; row++ {
		for c := range r.columns {
			b.CellBytes(c, d.bytes())
		}
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return b.Table()
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
	if d.checkCells(nrows, ncols); d.err != nil {
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

// checkCells refuses a block of nrows x ncols cells, nrows > 0, that
// the rest of the payload could not hold.
func (d *recDecoder) checkCells(nrows, ncols int) {
	if ncols <= 0 {
		d.err = fmt.Errorf("store: wal record with %d rows but %d columns", nrows, ncols)
		return
	}
	// Every encoded cell costs at least one byte, so a cell count
	// beyond the remaining payload is framing damage, not a big table.
	if int64(nrows)*int64(ncols) > int64(len(d.buf)) {
		d.err = fmt.Errorf("store: implausible %dx%d cell block in wal record", nrows, ncols)
	}
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

// bytes reads a length-prefixed string as a window of the payload.
func (d *recDecoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.err = errRecTruncated
		return nil
	}
	s := d.buf[:n:n]
	d.buf = d.buf[n:]
	return s
}

func (d *recDecoder) string() string { return string(d.bytes()) }

// recStringLen is the encoded size of s: its uvarint length prefix and
// its bytes.
func recStringLen(s string) int {
	return (bits.Len64(uint64(len(s))|1)+6)/7 + len(s)
}

func recString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}
