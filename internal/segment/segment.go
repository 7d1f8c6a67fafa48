// Package segment implements the immutable columnar segment files and
// the manifest that the store's checkpointer compacts its write-ahead
// log into. One segment file holds one table snapshot, column by
// column and record by record. A cell is spelled out where its
// spelling first appears in its column, and after that is the number
// of that first appearance, so each distinct spelling is stored once.
// The numbers are the table's own dictionary codes, which count first
// appearances: the writer reads the cells straight out of the table's
// dictionary and codes, and the reader feeds them to the table
// builder, which parses a spelling once however many records hold it.
//
// The body is the one table codec: it is also the payload of the
// store's WAL register record (EncodeTable / DecodeTable, with an
// empty zone footer), so a registered table and a checkpointed one are
// written and read by the same code. One encoder writes it, into one
// of two sinks: AppendTable's buffer, grown once up front to hold the
// whole body and never flushed, for a segment file; or EncodeTable's
// pieces of at most pieceBytes each (a longer spelling is a piece of
// its own), handed over as they fill, so a register record of a big
// table is never held whole.
//
// Layout:
//
//	"WTQSEG1\n" <crc32c uint32 LE over body> <body>
//
// body, all integers uvarint, strings length-prefixed:
//
//	schema(=3) name gen version
//	ncols col... nrows
//	per column, per record: v, and when v is odd v>>1 bytes of text
//	zone footer: nzcols (0, or = ncols), then per column nzones and
//	per zone: min max (float64 bits, 8 bytes LE each) keyMin keyMax
//	numCount nanCount emptyCount
//
// An odd v spells the column's next dictionary entry; an even v
// repeats entry v>>1, which must be one the column has already spelled.
// The zone footer carries the per-column zone maps of the snapshot so
// recovery installs them without rescanning the columns. It lives
// under the same checksum as the rest of the body. Bodies of schema 1
// and 2, which stored each column as its dictionary and then its
// codes, are refused: a table persisted in them is registered again
// from its CSV.
//
// Files are written atomically (tmp + fsync + rename + dir fsync) and
// never modified after that, so a reader either sees a whole valid
// segment or none at all; the checksum turns silent disk damage into
// a hard recovery error instead of a wrong table.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"path/filepath"

	"nlexplain/internal/table"
	"nlexplain/internal/vfs"
)

// ErrCorrupt reports a segment file whose magic, checksum or framing
// is damaged, or a table body that does not decode. Recovery treats it
// as fatal: a persisted table that cannot be read back intact must not
// be silently dropped.
var ErrCorrupt = errors.New("segment: corrupt file")

const (
	magic      = "WTQSEG1\n"
	schemaSeg  = 3       // cells spelled where they first appear + zone-map footer
	maxStrings = 1 << 30 // sanity bound on any length field
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Meta describes the table snapshot a segment holds.
type Meta struct {
	Name    string
	Gen     uint64 // store generation of the snapshot
	Version string // content-hash version of the snapshot
	Columns []string
	Rows    int
}

// Write encodes rows — raw cell text, row-major, each row
// len(m.Columns) wide — as one table snapshot into path: WriteTable
// over the table the rows build.
func Write(path string, m Meta, rows [][]string, zones [][]table.Zone) error {
	t, err := table.New(m.Name, m.Columns, rows)
	if err != nil {
		return err
	}
	return WriteTable(vfs.OS, path, m, t, zones)
}

// WriteTable encodes one table snapshot into path atomically, all I/O
// through fsys (nil means the OS passthrough). A column goes out as the
// table holds it, each spelling once. zones, when non-nil,
// is the snapshot's per-column zone maps (len(m.Columns) columns wide)
// persisted in the checksummed footer. Nothing is retained.
func WriteTable(fsys vfs.FS, path string, m Meta, t *table.Table, zones [][]table.Zone) error {
	if len(m.Columns) != t.NumCols() {
		return fmt.Errorf("segment: %s: meta names %d columns, table has %d", path, len(m.Columns), t.NumCols())
	}
	buf := AppendTable(make([]byte, len(magic)+4), m, t, zones)
	copy(buf, magic)
	binary.LittleEndian.PutUint32(buf[len(magic):], crc32.Checksum(buf[len(magic)+4:], castagnoli))
	return writeAtomic(fsys, filepath.Dir(path), filepath.Base(path), buf)
}

// writeAtomic installs data as dir/name through fsys (nil means the OS
// passthrough): tmp + fsync + rename + dir fsync, so a crash or a
// fault on any step leaves the previous file or the new one, never a
// torn mix, and no tmp file behind.
func writeAtomic(fsys vfs.FS, dir, name string, data []byte) error {
	fsys = vfs.Or(fsys)
	tmp, err := fsys.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// bodyBound is an upper bound on the encoded body up to the zone
// footer: every entry's text and a full length prefix, and for every
// record the longest repeat the column can have.
func bodyBound(m Meta, t *table.Table) int {
	const lenPrefix = binary.MaxVarintLen32
	n := 64 + len(m.Name) + len(m.Version)
	for c, name := range m.Columns {
		dict, codes := t.ColumnDictionary(c)
		n += lenPrefix + len(name) + dict.TextLen() + lenPrefix*dict.Len() + uvarintLen(uint64(dict.Len())<<1)*len(codes)
	}
	return n
}

// AppendTable appends the body of one table snapshot to b and returns
// the extended slice. b grows once, up front, to hold everything but
// the zones, so the body of a big table is not copied as it grows.
// m.Columns must be t's columns; zones, when non-nil, is the
// snapshot's per-column zone maps, and nil writes an empty footer.
func AppendTable(b []byte, m Meta, t *table.Table, zones [][]table.Zone) []byte {
	if n := bodyBound(m, t); cap(b)-len(b) < n {
		b = append(make([]byte, 0, len(b)+n), b...)
	}
	e := encoder{b: b}
	e.body(m, t, zones)
	return e.b
}

// pieceBytes is the most EncodeTable hands put at once, unless one
// spelling is longer.
const pieceBytes = 64 << 10

// EncodeTable emits the body AppendTable appends to put, in pieces of
// at most pieceBytes, and returns put's first error. A spelling longer
// than that is a piece of its own. A piece is reused
// once put returns; the last one is left as it is. A body that fits
// in one piece is emitted as one.
func EncodeTable(m Meta, t *table.Table, zones [][]table.Zone, put func([]byte) error) error {
	e := encoder{b: make([]byte, 0, min(bodyBound(m, t), pieceBytes)), put: put}
	e.body(m, t, zones)
	if len(e.b) > 0 {
		e.flush()
	}
	return e.err
}

// encoder writes a table body into b. With put set, bytes that would
// take b past pieceBytes first send what b holds to put, and b starts
// over; without, b just grows.
type encoder struct {
	b   []byte
	put func([]byte) error
	err error // put's first error; nothing is put after it
}

func (e *encoder) body(m Meta, t *table.Table, zones [][]table.Zone) {
	e.uvarint(schemaSeg)
	e.string(m.Name)
	e.uvarint(m.Gen)
	e.string(m.Version)
	e.uvarint(uint64(len(m.Columns)))
	for _, c := range m.Columns {
		e.string(c)
	}
	e.uvarint(uint64(t.NumRows()))
	for c := range m.Columns {
		if e.err != nil {
			return
		}
		// The dictionary numbers its entries in first-appearance order,
		// so a record whose code is the count spelled so far is the
		// entry's first.
		dict, codes := t.ColumnDictionary(c)
		spelled := uint32(0)
		for _, code := range codes {
			if code < spelled {
				e.uvarint(uint64(code) << 1)
				continue
			}
			s := dict.Entry(int(code))
			v := uint64(len(s))<<1 | 1
			e.room(uvarintLen(v) + len(s))
			e.b = binary.AppendUvarint(e.b, v)
			e.b = append(e.b, s...)
			spelled++
		}
	}
	e.uvarint(uint64(len(zones)))
	for _, zs := range zones {
		e.uvarint(uint64(len(zs)))
		for i := range zs {
			z := &zs[i]
			e.float64(z.Min)
			e.float64(z.Max)
			e.string(z.KeyMin)
			e.string(z.KeyMax)
			e.uvarint(uint64(z.NumCount))
			e.uvarint(uint64(z.NaNCount))
			e.uvarint(uint64(z.EmptyCount))
		}
	}
}

// room makes way for n more bytes: with a sink, the bytes b holds go
// to it first when n more would make a piece too long.
func (e *encoder) room(n int) {
	if e.put != nil && len(e.b)+n > pieceBytes && len(e.b) > 0 {
		e.flush()
	}
}

func (e *encoder) flush() {
	if e.err == nil {
		e.err = e.put(e.b)
	}
	e.b = e.b[:0]
}

func (e *encoder) uvarint(v uint64) {
	e.room(uvarintLen(v))
	e.b = binary.AppendUvarint(e.b, v)
}

func (e *encoder) string(s string) {
	e.room(uvarintLen(uint64(len(s))) + len(s))
	e.b = binary.AppendUvarint(e.b, uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) float64(f float64) {
	e.room(8)
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(f))
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Read decodes the segment file at path into row-major raw cell text:
// ReadTable, and the rows of the table it returns.
func Read(path string) (Meta, [][]string, [][]table.Zone, error) {
	m, t, zones, err := ReadTable(vfs.OS, path)
	if err != nil {
		return m, nil, nil, err
	}
	return m, t.RawRows(), zones, nil
}

// ReadTable decodes the segment file at path, all I/O through fsys
// (nil means the OS passthrough), verifying the checksum, and builds
// the table it holds: each cell goes to the table builder as it is
// read, a repeat by the code its spelling got, so a spelling is parsed
// once however many records hold it. zones is the decoded per-column
// zone footer — nil for a footer written without zones.
func ReadTable(fsys vfs.FS, path string) (Meta, *table.Table, [][]table.Zone, error) {
	data, err := vfs.Or(fsys).ReadFile(path)
	if err != nil {
		return Meta{}, nil, nil, err
	}
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return Meta{}, nil, nil, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, path)
	}
	sum := binary.LittleEndian.Uint32(data[len(magic):])
	body := data[len(magic)+4:]
	if crc32.Checksum(body, castagnoli) != sum {
		return Meta{}, nil, nil, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, path)
	}
	return DecodeTable(body, path)
}

// DecodeTable decodes a checksummed body — a segment file's, or a WAL
// register record's payload — naming what in its errors, which all
// wrap ErrCorrupt. A body the writer did not produce is still read for
// what it says: a spelling spelled out twice, and repeats of either
// copy, build the same table as the canonical body — the builder
// numbers spellings as the records bring them — at one dictionary
// lookup per spelling, not per record. What it allocates is bounded by
// the length of the body.
func DecodeTable(body []byte, what string) (Meta, *table.Table, [][]table.Zone, error) {
	var m Meta
	d := decoder{buf: body, what: what}
	schema := d.uvarint()
	if d.err == nil && (schema == 1 || schema == 2) {
		return m, nil, nil, fmt.Errorf("%w: %s: schema %d, each column's dictionary then its codes, is no longer read; register the table again from its CSV", ErrCorrupt, what, schema)
	}
	if d.err == nil && schema != schemaSeg {
		return m, nil, nil, fmt.Errorf("%w: %s: unknown schema %d", ErrCorrupt, what, schema)
	}
	m.Name = d.string()
	m.Gen = d.uvarint()
	m.Version = d.string()
	ncols := int(d.count(1))
	m.Columns = make([]string, 0, ncols)
	for i := 0; i < ncols && d.err == nil; i++ {
		m.Columns = append(m.Columns, d.string())
	}
	nrows := int(d.count(ncols)) // every cell costs a byte at least: its v
	m.Rows = nrows
	if d.err != nil {
		return m, nil, nil, d.fail()
	}
	b, err := table.NewBuilder(m.Name, m.Columns, nrows)
	if err != nil {
		return m, nil, nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, what, err)
	}
	var codes []uint32 // the builder's code for each spelling the column has spelled out so far
	for c := 0; c < ncols; c++ {
		codes = codes[:0]
		for r := 0; r < nrows; r++ {
			v := d.uvarint()
			if d.err != nil {
				return m, nil, nil, d.fail()
			}
			if v&1 == 1 {
				codes = append(codes, b.CellBytes(c, d.take(v>>1)))
				continue
			}
			if v>>1 >= uint64(len(codes)) {
				return m, nil, nil, fmt.Errorf("%w: %s: column %d repeats entry %d of %d", ErrCorrupt, what, c, v>>1, len(codes))
			}
			b.Repeat(c, codes[v>>1])
		}
		if d.err != nil {
			return m, nil, nil, d.fail()
		}
	}
	var zones [][]table.Zone
	nzcols := int(d.count(1))
	if d.err == nil && nzcols != 0 && nzcols != ncols {
		return m, nil, nil, fmt.Errorf("%w: %s: zone footer covers %d of %d columns", ErrCorrupt, what, nzcols, ncols)
	}
	if nzcols != 0 {
		zones = make([][]table.Zone, nzcols)
		for c := 0; c < nzcols && d.err == nil; c++ {
			nz := int(d.count(minZoneBytes))
			zs := make([]table.Zone, 0, nz)
			for i := 0; i < nz && d.err == nil; i++ {
				var z table.Zone
				z.Min = d.float64()
				z.Max = d.float64()
				z.KeyMin = d.string()
				z.KeyMax = d.string()
				z.NumCount = int32(d.count(0))
				z.NaNCount = int32(d.count(0))
				z.EmptyCount = int32(d.count(0))
				zs = append(zs, z)
			}
			zones[c] = zs
		}
	}
	if d.err != nil {
		return m, nil, nil, d.fail()
	}
	if len(d.buf) != 0 {
		return m, nil, nil, fmt.Errorf("%w: %s: %d trailing bytes", ErrCorrupt, what, len(d.buf))
	}
	t, err := b.Table()
	if err != nil {
		return m, nil, nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, what, err)
	}
	return m, t, zones, nil
}

// minZoneBytes is the least an encoded zone takes: two float64s, two
// empty strings and three counts.
const minZoneBytes = 8 + 8 + 1 + 1 + 3

// decoder walks a segment body, latching the first framing error.
type decoder struct {
	buf  []byte
	what string
	err  error
}

func (d *decoder) fail() error {
	return fmt.Errorf("%w: %s: %v", ErrCorrupt, d.what, d.err)
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = errors.New("truncated uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// count reads a uvarint that counts elements still to come, each at
// least each bytes long: one that the rest of the body could not hold
// is framing damage, and is refused before it sizes an allocation.
func (d *decoder) count(each int) uint64 {
	v := d.uvarint()
	if d.err == nil && (v > maxStrings || v*uint64(each) > uint64(len(d.buf))) {
		d.err = fmt.Errorf("implausible count %d", v)
		return 0
	}
	return v
}

// float64 reads fixed 8-byte little-endian IEEE-754 bits.
func (d *decoder) float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.err = errors.New("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

// take reads the next n bytes as a window of the body.
func (d *decoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.err = fmt.Errorf("string of %d bytes exceeds remaining %d", n, len(d.buf))
		return nil
	}
	s := d.buf[:n:n]
	d.buf = d.buf[n:]
	return s
}

// string reads a length-prefixed string.
func (d *decoder) string() string { return string(d.take(d.uvarint())) }
