package plan

import (
	"sync"
	"sync/atomic"

	"nlexplain/internal/table"
)

// arena is the per-execution scratch store behind the allocation-free
// hot path: every intermediate val, row buffer, bitset word block,
// value/span buffer and dedup hash table an execution needs is drawn
// from here, and the whole arena returns to a sync.Pool when the run
// finishes. Repeated queries therefore allocate O(1): after the
// first few executions warm a pooled arena, the only remaining
// allocations are the boundary copies (detach) of whatever escapes to
// the caller.
//
// Lifecycle rules:
//
//   - An arena belongs to exactly one execution at a time, and
//     executions never nest, so reuse never crosses runs.
//   - Arena-backed memory must never survive release: RunIntoCtx detaches
//     (deep-copies) the root val before releasing, and tracers must
//     copy the rows of any span they want to keep (see Tracer.Operator).
//   - Buffers are handed out empty (len 0) and never handed back
//     individually; release simply rewinds the high-water marks.
//     Stale contents past a buffer's returned length are never read.
//   - Pooled buffers may pin table values (dictionary windows) and row
//     sets (the posting lists a span shares) until the next GC empties
//     the pool; used vals are zeroed on release so the
//     pool itself never keeps a dropped snapshot alive through them.
//   - No arena holds the identity row set: every execution shares one
//     (identity).
type arena struct {
	// ex is the executor itself, embedded so a run allocates nothing.
	ex executor

	rows   bufs[int32] // row sets
	ints   bufs[int]   // per-morsel counts and positions
	floats bufs[float64]
	words  bufs[uint64]
	vals   bufs[table.Value]
	spans  bufs[table.Span]

	valNodes []*val
	valUsed  int

	ded dedup
	// local holds one code map per morsel worker for the grouping
	// kernel — worker w owns local[w] for the duration of a drive —
	// and global the one its merge uses.
	local  []codeMap
	global codeMap
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// getArena checks an arena out of the pool for one execution.
func getArena() *arena { return arenaPool.Get().(*arena) }

// release rewinds the arena and returns it to the pool. Used vals are
// zeroed so pooled arenas drop their references into table data.
func (a *arena) release() {
	for i := 0; i < a.valUsed; i++ {
		*a.valNodes[i] = val{}
	}
	a.valUsed = 0
	a.rows.reset()
	a.ints.reset()
	a.floats.reset()
	a.words.reset()
	a.vals.reset()
	a.spans.reset()
	a.ex = executor{}
	arenaPool.Put(a)
}

// val hands out a zeroed val with the given kind.
func (a *arena) val(k Kind) *val {
	if a.valUsed == len(a.valNodes) {
		a.valNodes = append(a.valNodes, new(val))
	}
	v := a.valNodes[a.valUsed]
	a.valUsed++
	*v = val{Kind: k}
	return v
}

// rowSet hands out a cleared bitset over [0, n).
func (a *arena) rowSet(n int) RowSet {
	nw := rowSetWords(n)
	w := a.words.get(nw)[:nw]
	clear(w)
	return RowSet{words: w}
}

// locals returns the per-worker code maps for a drive with up to the
// given number of workers over a column of nkeys distinct keys.
func (a *arena) locals(workers, nkeys int) []codeMap {
	for len(a.local) < workers {
		a.local = append(a.local, nil)
	}
	for w := range a.local[:workers] {
		a.local[w].sized(nkeys)
	}
	return a.local[:workers]
}

// codeMap is the grouping kernel's key code -> group scratch: an array
// indexed by a column's dense key codes. Every slot reads -1 between
// uses — whoever sets slots forgets exactly those before handing the
// map back — so a use costs its distinct keys, not the column's.
type codeMap []int32

// sized returns the map with a slot for each of n codes.
func (m *codeMap) sized(n int) codeMap {
	if old := len(*m); old < n {
		*m = append(*m, make([]int32, n-old)...)
		for i := old; i < n; i++ {
			(*m)[i] = -1
		}
	}
	return *m
}

// forget resets the slots of the codes at rows.
func (m codeMap) forget(codes []uint32, rows []int32) {
	for _, r := range rows {
		m[codes[r]] = -1
	}
}

// identRows holds the identity row set 0..n-1 for the largest table
// any execution has scanned, shared by every execution of every Exec:
// immutable once published, and replaced — never grown in place — when
// a larger table needs a longer one. It costs 4 bytes per row of that
// table, once per process.
var identRows atomic.Pointer[[]int32]

// identity returns the ascending row set 0..n-1. It is shared, so
// callers treat it as immutable (executors never mutate input row
// slices).
func identity(n int) []int32 {
	for {
		p := identRows.Load()
		if p != nil && len(*p) >= n {
			return (*p)[:n:n]
		}
		rows := make([]int32, n)
		for i := range rows {
			rows[i] = int32(i)
		}
		if identRows.CompareAndSwap(p, &rows) {
			return rows
		}
	}
}

// bufs is a freelist of reusable []T scratch buffers. get hands out
// an empty buffer with at least the hinted capacity; reset makes every
// buffer available again. A buffer that outgrows its capacity through
// append simply migrates to a fresh backing array — the pool keeps the
// original, so steady-state executions stop allocating once the high
// water marks are reached.
type bufs[T any] struct {
	free [][]T
	used int
}

func (p *bufs[T]) get(capHint int) []T {
	if p.used == len(p.free) {
		p.free = append(p.free, make([]T, 0, capHint))
	}
	b := p.free[p.used]
	if cap(b) < capHint {
		b = make([]T, 0, capHint)
		p.free[p.used] = b
	}
	p.used++
	return b[:0]
}

func (p *bufs[T]) reset() { p.used = 0 }

// dedup is the arena's open-addressing hash-set scratch behind value
// dedup (Union over values, CompareVals). Slots hold caller payloads
// (an output index); the caller confirms hash matches with its own
// equality check, so FNV collisions are harmless. Sessions must not
// overlap: each operator finishes its dedup before the next one runs.
type dedup struct {
	hashes []uint64
	slots  []int32
	mask   uint64
}

// init sizes the table for up to n insertions (load factor <= 1/2)
// and clears it. O(table) but allocation-free at steady state.
func (d *dedup) init(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if cap(d.slots) >= size {
		d.slots = d.slots[:size]
		d.hashes = d.hashes[:size]
	} else {
		d.slots = make([]int32, size)
		d.hashes = make([]uint64, size)
	}
	for i := range d.slots {
		d.slots[i] = -1
	}
	d.mask = uint64(size - 1)
}

// lookup probes for an entry with hash h confirmed by eq, returning
// its payload. eq is called only on hash-equal candidates.
func (d *dedup) lookup(h uint64, eq func(payload int32) bool) (int32, bool) {
	for i := h & d.mask; ; i = (i + 1) & d.mask {
		p := d.slots[i]
		if p < 0 {
			return 0, false
		}
		if d.hashes[i] == h && eq(p) {
			return p, true
		}
	}
}

// insert records payload under h. Call only after a failed lookup and
// never beyond the capacity init sized for.
func (d *dedup) insert(h uint64, payload int32) {
	for i := h & d.mask; ; i = (i + 1) & d.mask {
		if d.slots[i] < 0 {
			d.slots[i] = payload
			d.hashes[i] = h
			return
		}
	}
}
