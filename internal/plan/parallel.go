package plan

import (
	"cmp"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nlexplain/internal/table"
)

// Morsel-driven execution.
//
// Every scan-shaped operator is written once, as a kernel — its work on
// one morsel (a fixed-size run of input positions) — plus an ordered
// merge of the per-morsel outputs, and one driver runs the kernel over
// the input. The driver forks when the input reaches the parallel
// threshold and more than one worker is configured: the calling
// goroutine is always worker 0, and up to workers-1 extra goroutines
// join if the process-wide pool has free slots (if it is saturated the
// caller simply drains every morsel itself, never blocks). Morsels are
// claimed dynamically off an atomic counter, so stragglers do not idle
// the pool. Otherwise the same kernel runs inline on the caller over
// the same morsel bounds: serial execution is the driver with one
// worker, and a small table is one morsel.
//
// Merging is deterministic: a kernel writes morsel m's output only to
// slot m of its partials, and the operator folds the slots in morsel
// order after the driver returns. Because input row sets are ascending
// (the val invariant) and morsels tile them in order, concatenating
// per-morsel row matches yields one ascending row set whichever worker
// ran which morsel, and value projection's first-appearance order is
// preserved by merging locally-first representatives morsel by morsel.
//
// Partials live in arena buffers the operator draws before the driver
// starts and slices into disjoint per-morsel windows (morsel m writes
// only [lo:hi), each window's capacity bounds its morsel's output), so
// workers allocate nothing per morsel, never call into the arena, and
// never share a byte. Kernel state itself sits in the pooled executor,
// so handing a kernel to the driver allocates nothing either — the
// warm small-table path stays at its two result allocations.
const (
	// morselRows is the fixed morsel size. A multiple of 64 keeps
	// morsels aligned to RowSet word boundaries; 32K rows is large
	// enough to amortize dispatch and small enough to load-balance.
	morselRows = 32768

	// DefaultParallelThreshold is the input-size floor below which the
	// driver never forks.
	DefaultParallelThreshold = 1 << 16
)

// Exec is an executor: the settings each plan execution under it reads
// once, when it starts, and the counters the execution adds to. Every
// execution runs under exactly one Exec — an engine owns one, and an
// execution that names none runs under the package default. Set the
// settings before an Exec runs anything; the counters may be read at
// any time.
type Exec struct {
	// Workers caps the morsel workers of one execution: 0 means
	// runtime.GOMAXPROCS at execution time, 1 never forks.
	Workers int
	// ForkAt is the input size from which the driver forks; 0 means
	// DefaultParallelThreshold.
	ForkAt int
	// ZoneFloor is the table size, in rows, from which scans consult zone
	// maps: 0 means table.ZoneRows, 1 every table, math.MaxInt none.
	ZoneFloor int
	// Morsel, when set, receives the wall-clock duration of every morsel
	// a forked kernel runs, from every worker goroutine at once.
	Morsel func(time.Duration)

	// ParallelRuns counts executions that forked at least one kernel and
	// SerialRuns the rest; Morsels counts the morsels forked kernels
	// handed out, Skipped and Shortcut those zone verdicts proved empty
	// and full.
	ParallelRuns, SerialRuns, Morsels, Skipped, Shortcut atomic.Uint64
}

// defaultExec runs every execution that names no Exec. Its worker count
// lives apart, in defaultWorkers, because SetExecWorkers may change it
// while executions run.
var (
	defaultExec    Exec
	defaultWorkers atomic.Int64
)

// SetExecWorkers sets the default Exec's worker count and returns the
// previous setting; n <= 0 restores runtime.GOMAXPROCS.
func SetExecWorkers(n int) int {
	return int(defaultWorkers.Swap(int64(max(n, 0))))
}

// SkipStats returns the default Exec's zone-skipping counters: morsels
// skipped as provably empty and morsels bulk-filled as provably full.
func SkipStats() (skipped, shortcut uint64) {
	return defaultExec.Skipped.Load(), defaultExec.Shortcut.Load()
}

// extraSem bounds the extra worker goroutines the whole process may
// run at once, across every execution of every Exec. Sized at least 8
// so tests forcing eight workers exercise real cross-goroutine
// interleavings even on small machines.
var extraSem = make(chan struct{}, max(8, 2*runtime.GOMAXPROCS(0)))

// FamilyOf classifies a plan root into a coarse query family for
// profiling labels: lookup, comparative, superlative, aggregate.
func FamilyOf(n Node) string {
	switch x := n.(type) {
	case *ProjectCol:
		return FamilyOf(x.Input)
	case *Aggregate, *Arith, *MostFrequent, *CompareVals:
		return "aggregate"
	case *Superlative, *IndexSuper:
		return "superlative"
	case *Compare:
		return "comparative"
	}
	return "lookup"
}

// execConfig is an Exec's settings as one execution sees them: resolved
// once, when the run starts, and carried on the executor, so a setting
// changing mid-run never leaves per-worker state sized for one worker
// count and goroutines spawned for another.
type execConfig struct {
	workers   int  // morsel workers a forked kernel may use (>= 1)
	threshold int  // input size from which the driver forks
	zones     bool // whether scans over this table consult zone maps
}

func (x *Exec) config(tableRows int) execConfig {
	workers := x.Workers
	if x == &defaultExec {
		workers = int(defaultWorkers.Load())
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return execConfig{
		workers:   workers,
		threshold: cmp.Or(x.ForkAt, DefaultParallelThreshold),
		zones:     tableRows >= cmp.Or(x.ZoneFloor, table.ZoneRows),
	}
}

// forks is the fork gate: true when the input is past the threshold and
// more than one worker is configured.
func (c execConfig) forks(n int) bool { return n >= c.threshold && c.workers > 1 }

// Forks reports whether an input of n rows takes the morsel-parallel
// path under x.
func (x *Exec) Forks(n int) bool { return x.config(0).forks(n) }

func morselCount(n int) int { return (n + morselRows - 1) / morselRows }

func morselBounds(m, n int) (lo, hi int) {
	lo = m * morselRows
	hi = min(lo+morselRows, n)
	return lo, hi
}

// kernel is one scan-shaped operator's work on one morsel: input
// positions [lo, hi), morsel index m, running on worker w. A kernel
// writes only morsel m's slot of its partials and worker w's slot of
// any per-worker scratch, and otherwise reads shared inputs; it must
// not touch the arena. A kernel cannot fail: what the data makes of an
// operator is recorded in its partials and judged by the merge.
type kernel interface {
	morsel(w, m, lo, hi int)
}

// drive runs k over every morsel of an n-element input — forked when
// the configuration forks at n, inline on the caller otherwise. It returns once
// every morsel it handed out has finished, with nil or the context's
// error; the kernel's partials are then the operator's to merge.
func (ex *executor) drive(n int, k kernel) error {
	if ex.cfg.forks(n) {
		return ex.forkJoin(n, k)
	}
	return ex.eachMorsel(n, func(m, lo, hi int) { k.morsel(0, m, lo, hi) })
}

// eachMorsel is the inline driver: body runs on the caller for every
// morsel of [0, n) in order, with the context polled at each boundary.
// Order-sensitive folds that can never fork call it directly; body does
// not escape, so their closures stay on the stack.
func (ex *executor) eachMorsel(n int, body func(m, lo, hi int)) error {
	for m, nm := 0, morselCount(n); m < nm; m++ {
		if err := ex.ctxErr(); err != nil {
			return err
		}
		lo, hi := morselBounds(m, n)
		body(m, lo, hi)
	}
	return nil
}

func (ex *executor) ctxErr() error {
	if ex.ctx == nil {
		return nil
	}
	return ex.ctx.Err()
}

// forkJoin is the forked driver: k runs for every morsel of [0, n)
// from the calling goroutine (worker 0) plus up to workers-1 extra
// goroutines admitted by extraSem. It returns after every claimed
// morsel finished, with nil or the context's error, which every worker
// polls at morsel boundaries and the first to see it records; worker
// panics are captured and re-raised on the caller after the join, so
// the engine's panic containment sees them exactly as inline panics.
// Every morsel handed out is booked in the Exec's Morsels counter and
// timed for its Morsel hook, whatever the kernel decided to do with it.
func (ex *executor) forkJoin(n int, k kernel) error {
	nm := morselCount(n)
	workers := min(ex.cfg.workers, nm)
	var (
		next     atomic.Int64
		canceled atomic.Pointer[error]
		panicked atomic.Pointer[any]
	)
	obs := ex.x.Morsel
	loop := func(w int) {
		defer func() {
			if p := recover(); p != nil {
				pv := p
				panicked.CompareAndSwap(nil, &pv)
			}
		}()
		for {
			if panicked.Load() != nil || canceled.Load() != nil {
				return
			}
			m := int(next.Add(1)) - 1
			if m >= nm {
				return
			}
			if err := ex.ctxErr(); err != nil {
				canceled.CompareAndSwap(nil, &err)
				return
			}
			var start time.Time
			if obs != nil {
				start = time.Now()
			}
			lo, hi := morselBounds(m, n)
			k.morsel(w, m, lo, hi)
			if obs != nil {
				obs(time.Since(start))
			}
			ex.x.Morsels.Add(1)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		select {
		case extraSem <- struct{}{}:
		default:
			// Pool saturated: the remaining morsels drain on the workers
			// already running (always at least the caller).
			w = workers
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() { <-extraSem }()
			loop(w)
		}(w)
	}
	loop(0)
	wg.Wait()
	ex.usedParallel = true
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
	if e := canceled.Load(); e != nil {
		return *e
	}
	return nil
}

// ---- kernels ----

// rowFilter is the kernel behind every operator that narrows a row
// set: it keeps the rows of an ascending input that a matcher accepts.
// A scan of the whole row space is the same kernel over the identity
// row set; there its morsels line up with the table's zones, and a
// verdict can settle a morsel without reading it — none skips it, all
// bulk-fills its row range, maybe runs the matcher. With no verdicts
// every morsel is a maybe.
type rowFilter struct {
	rows  []int32   // ascending input row set
	zones *zoneScan // per-morsel verdicts; nil when nothing is provable

	// keep decides one row. When keep is nil the kernel keeps the rows
	// whose code is not drop instead: an entity inequality over a
	// column's key codes.
	keep  func(row int32) bool
	codes []uint32
	drop  uint32

	out  []int32 // morsel m appends its matches to out[lo:lo:hi]
	lens []int   // matches per morsel
}

func (k *rowFilter) morsel(_, m, lo, hi int) {
	rows, dst := k.rows[lo:hi], k.out[lo:lo:hi]
	verdict := zoneMaybe
	if k.zones != nil {
		verdict = k.zones.verdicts[m]
	}
	switch {
	case verdict == zoneNone:
	case verdict == zoneAll:
		dst = append(dst, rows...)
	case k.keep == nil:
		for _, r := range rows {
			if k.codes[r] != k.drop {
				dst = append(dst, r)
			}
		}
	default:
		for _, r := range rows {
			if k.keep(r) {
				dst = append(dst, r)
			}
		}
	}
	k.lens[m] = len(dst)
}

// filterRows runs a rowFilter and merges it: the per-morsel windows
// compact, in morsel order, to the front of the output buffer — one
// ascending row set. Decided morsels are booked in the skip counters.
func (ex *executor) filterRows(k rowFilter) ([]int32, error) {
	n := len(k.rows)
	nm := morselCount(n)
	k.out = ex.ar.rows.get(n)
	k.lens = ex.ar.ints.get(nm)[:nm]
	ex.filt = k
	if err := ex.drive(n, &ex.filt); err != nil {
		return nil, err
	}
	if k.zones != nil {
		ex.x.Skipped.Add(uint64(k.zones.none))
		ex.x.Shortcut.Add(uint64(k.zones.all))
	}
	out := k.out
	for m, c := range k.lens {
		lo := m * morselRows
		out = append(out, k.out[lo:lo+c]...)
	}
	return out, nil
}

// extremeScan is the first pass of a subset superlative over a clean
// numeric column: each morsel's extreme of nums over its rows. The
// column is indexable and all-numeric, so it holds no NaN and float
// max/min recombine exactly.
type extremeScan struct {
	rows  []int32
	nums  []float64
	max   bool
	bests []float64 // per-morsel extreme
}

func (k *extremeScan) morsel(_, m, lo, hi int) {
	best := k.nums[k.rows[lo]]
	for _, r := range k.rows[lo+1 : hi] {
		if v := k.nums[r]; (k.max && v > best) || (!k.max && v < best) {
			best = v
		}
	}
	k.bests[m] = best
}

// extreme returns the max (or min) of nums over a non-empty row set.
func (ex *executor) extreme(rows []int32, nums []float64, wantMax bool) (float64, error) {
	nm := morselCount(len(rows))
	ex.ext = extremeScan{rows: rows, nums: nums, max: wantMax, bests: ex.ar.floats.get(nm)[:nm]}
	if err := ex.drive(len(rows), &ex.ext); err != nil {
		return 0, err
	}
	best := ex.ext.bests[0]
	for _, b := range ex.ext.bests[1:] {
		if (wantMax && b > best) || (!wantMax && b < best) {
			best = b
		}
	}
	return best, nil
}

// groupScan is the kernel behind value projection: each morsel groups
// its rows by the column's key codes, collecting one representative row
// per locally-distinct key in local first-appearance order. Codes are
// dense, so the key -> group map is an array indexed by code.
type groupScan struct {
	rows  []int32
	codes []uint32  // the column's key codes, by row
	local []codeMap // per-worker code -> local group scratch

	reps  []int32 // morsel m's representatives land in reps[lo:lo+nreps[m]]
	nreps []int
}

func (k *groupScan) morsel(w, m, lo, hi int) {
	local := k.local[w]
	reps := k.reps[lo:lo:hi]
	for _, r := range k.rows[lo:hi] {
		if local[k.codes[r]] < 0 {
			local[k.codes[r]] = int32(len(reps))
			reps = append(reps, r)
		}
	}
	local.forget(k.codes, reps)
	k.nreps[m] = len(reps)
}

// groupByKey groups an ascending row set by the canonical keys of
// column col, returning one representative row per distinct key in
// first-appearance order. The merge walks the morsels in order,
// deduplicating their local representatives — the earliest morsel
// holding a key is the one holding its first row; a lone morsel's
// representatives are the answer already.
func (ex *executor) groupByKey(rows []int32, col int) ([]int32, error) {
	n := len(rows)
	nm := morselCount(n)
	codes, nkeys := ex.t.ColumnKeyCodes(col), ex.t.NumKeys(col)
	k := &ex.grp
	*k = groupScan{rows: rows, codes: codes, local: ex.ar.locals(ex.cfg.workers, nkeys),
		reps: ex.ar.rows.get(n), nreps: ex.ar.ints.get(nm)[:nm]}
	if err := ex.drive(n, k); err != nil {
		return nil, err
	}
	if nm == 1 {
		return k.reps[:k.nreps[0]], nil
	}
	total := 0
	for _, c := range k.nreps {
		total += c
	}
	global := ex.ar.global.sized(nkeys)
	reps := ex.ar.rows.get(total)
	for m, c := range k.nreps {
		lo := m * morselRows
		for _, rep := range k.reps[lo : lo+c] {
			if global[codes[rep]] < 0 {
				global[codes[rep]] = int32(len(reps))
				reps = append(reps, rep)
			}
		}
	}
	global.forget(codes, reps)
	return reps, nil
}

// aggFold is the kernel behind sum/avg/min/max over a value set: each
// morsel validates its values and takes its min/max partial. The
// reference semantics is the interpreter's left fold, where a NaN
// compares equal to everything and so is never displaced and never
// displaces: partials let any value displace a NaN, which recombines
// exactly, and foldValues restores the one case the reference keeps
// one — a NaN in first position.
type aggFold struct {
	vals []table.Value
	sign int           // -1 min, +1 max, 0 when no extreme is wanted
	ext  []table.Value // per-morsel extreme
	bad  []int         // per-morsel position of the first non-numeric value, or -1
}

func (k *aggFold) morsel(_, m, lo, hi int) {
	k.bad[m] = -1
	best := k.vals[lo]
	for i := lo; i < hi; i++ {
		v := k.vals[i]
		if _, ok := v.Float(); !ok {
			// Recorded for the merge, which reports the earliest
			// morsel's: the first in input order.
			k.bad[m] = i
			return
		}
		if k.sign != 0 && displaces(k.sign, v, best) {
			best = v
		}
	}
	k.ext[m] = best
}

// displaces reports whether v takes over from cur as the running
// minimum (sign -1) or maximum (sign +1) of numeric values; anything
// takes over from a NaN.
func displaces(sign int, v, cur table.Value) bool {
	if c, _ := cur.Float(); math.IsNaN(c) {
		return true
	}
	return v.Compare(cur)*sign > 0
}

// foldValues aggregates a non-empty value set, bit-identical to the
// interpreter at any worker count: min/max partials recombine exactly,
// and the additions of sum/avg happen here, once, left to right in
// input order — per-morsel partial sums would round differently.
func (ex *executor) foldValues(x *Aggregate, vals []table.Value) (table.Value, error) {
	fn := x.Fn
	nm := morselCount(len(vals))
	k := &ex.agg
	*k = aggFold{vals: vals, ext: ex.ar.vals.get(nm)[:nm], bad: ex.ar.ints.get(nm)[:nm]}
	switch fn {
	case "min":
		k.sign = -1
	case "max":
		k.sign = 1
	}
	if err := ex.drive(len(vals), k); err != nil {
		return table.Value{}, err
	}
	for _, i := range k.bad {
		if i >= 0 {
			return table.Value{}, errorf(x.Src, "%s over non-numeric value %q", fn, vals[i])
		}
	}
	switch fn {
	case "min", "max":
		best := k.ext[0]
		for _, p := range k.ext[1:] {
			if displaces(k.sign, p, best) {
				best = p
			}
		}
		if f, _ := vals[0].Float(); math.IsNaN(f) {
			best = vals[0]
		}
		return best, nil
	case "sum", "avg":
		var sum float64
		for _, v := range vals {
			f, _ := v.Float()
			sum += f
		}
		if fn == "avg" {
			sum /= float64(len(vals))
		}
		return table.NumberValue(sum), nil
	}
	return table.Value{}, errorf(x.Src, "unknown aggregate %q", fn)
}
