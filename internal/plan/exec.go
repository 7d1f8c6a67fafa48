package plan

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"nlexplain/internal/table"
)

// Val is the runtime denotation of a plan node. Exactly the fields of
// its Kind are meaningful: Rows for RowsKind (ascending record
// indices), Values for ValuesKind and ScalarKind (ScalarKind holds the
// single scalar in Values[0] and the producing aggregate, if any, in
// Aggr), and Cols/Data/Src for TableKind (Src holds each output row's
// source record index, or the computed-row sentinel -1).
//
// Cells carries the node's PO witness cells (sorted row-major,
// duplicate-free — the table.CellSet form), computed only under an
// active Tracer; with an inactive tracer it is always nil.
//
// During execution Vals and their slices live in a pooled per-run
// arena; the Val RunInto fills is detached (deep-copied) into
// ordinary heap memory, so callers and caches may hold it forever.
type Val struct {
	Kind   Kind
	Rows   []int
	Values []table.Value
	Cols   []string
	Data   [][]table.Value
	Src    []int
	Aggr   string
	Cells  []table.CellRef
}

// RunInto executes the plan over a table under the given tracer (nil
// is treated as Noop: answer-only execution) and deposits the detached
// result in *out, which callers own (the query front-ends put it on the
// stack and copy the fields into their own result types). *out is
// overwritten entirely.
func RunInto(out *Val, n Node, t *table.Table, tr Tracer) error {
	return RunIntoCtx(nil, out, n, t, tr)
}

// RunIntoCtx is RunInto with cooperative cancellation: the morsel
// driver polls ctx at every morsel boundary, forked or inline,
// returning ctx.Err() once it fires — so a caller whose deadline
// expired never burns a full million-row scan. A nil ctx disables the
// checks.
func RunIntoCtx(ctx context.Context, out *Val, n Node, t *table.Table, tr Tracer) error {
	if tr == nil {
		tr = Noop{}
	}
	ar := getArena(t.NumRows())
	defer ar.release()
	ex := &ar.ex
	ex.t, ex.tr, ex.trace, ex.ar, ex.ctx = t, tr, tr.Active(), ar, ctx
	ex.cfg = resolveConfig(t.NumRows())
	v, err := ex.run(n)
	if ex.usedParallel {
		statParallelRuns.Add(1)
	} else {
		statSerialRuns.Add(1)
	}
	if err != nil {
		return err
	}
	detachInto(out, v)
	return nil
}

// detachInto deep-copies v — whose slices live in arena scratch — into
// ordinary heap memory in *out. Empty slices normalize to nil, and
// table data rows are packed into one flat backing array, so the copy
// costs O(result) bytes but O(1) allocations.
func detachInto(out, v *Val) {
	*out = Val{Kind: v.Kind, Aggr: v.Aggr}
	if len(v.Rows) > 0 {
		out.Rows = append(make([]int, 0, len(v.Rows)), v.Rows...)
	}
	if len(v.Values) > 0 {
		out.Values = append(make([]table.Value, 0, len(v.Values)), v.Values...)
	}
	if len(v.Cols) > 0 {
		out.Cols = append(make([]string, 0, len(v.Cols)), v.Cols...)
	}
	if len(v.Cells) > 0 {
		out.Cells = append(make([]table.CellRef, 0, len(v.Cells)), v.Cells...)
	}
	if len(v.Data) > 0 {
		w := 0
		for _, row := range v.Data {
			w += len(row)
		}
		flat := make([]table.Value, 0, w)
		out.Data = make([][]table.Value, len(v.Data))
		for i, row := range v.Data {
			flat = append(flat, row...)
			out.Data[i] = flat[len(flat)-len(row) : len(flat) : len(flat)]
		}
	}
	if len(v.Src) > 0 {
		out.Src = append(make([]int, 0, len(v.Src)), v.Src...)
	}
}

type executor struct {
	t     *table.Table
	tr    Tracer
	trace bool
	ar    *arena

	// ctx, when non-nil, is polled at morsel boundaries so abandoned
	// executions stop early.
	ctx context.Context
	cfg execConfig
	// usedParallel records whether the driver forked for any kernel,
	// feeding the parallel/serial run counters.
	usedParallel bool

	// Kernel state. It lives here, in the pooled arena, rather than in
	// closures: a kernel handed to a driver that can start goroutines
	// escapes at the call site whichever way the driver then runs it.
	// One of each suffices — an operator finishes its drive before the
	// next one starts, and nested executions own another arena.
	filt rowFilter
	ext  extremeScan
	grp  groupScan
	agg  aggFold
}

func (ex *executor) run(n Node) (*Val, error) {
	v, err := ex.eval(n)
	if err != nil {
		return nil, err
	}
	if ex.trace {
		ex.tr.Operator(n.Op(), v.Cells)
	}
	return v, nil
}

func (ex *executor) eval(n Node) (*Val, error) {
	switch x := n.(type) {
	case *Scan:
		v := ex.ar.val(RowsKind)
		v.Rows = ex.ar.identity(ex.t.NumRows())
		return v, nil
	case *IndexLookup:
		return ex.indexLookup(x.Col, x.canonicalKeys())
	case *Lookup:
		in, err := ex.run(x.Input)
		if err != nil {
			return nil, err
		}
		return ex.lookupValues(x.Col, in.Values)
	case *Compare:
		return ex.compare(x)
	case *Filter:
		return ex.filter(x)
	case *Shift:
		return ex.shift(x)
	case *Intersect:
		return ex.intersect(x)
	case *Union:
		return ex.union(x)
	case *Superlative:
		return ex.superlative(x)
	case *Const:
		v := ex.ar.val(ValuesKind)
		v.Values = x.Values
		return v, nil
	case *constScalar:
		v := ex.ar.val(ScalarKind)
		v.Values = x.Values
		v.Aggr = x.aggr
		return v, nil
	case *ProjectCol:
		return ex.projectCol(x)
	case *IndexSuper:
		return ex.indexSuper(x)
	case *MostFrequent:
		return ex.mostFrequent(x)
	case *CompareVals:
		return ex.compareVals(x)
	case *Aggregate:
		return ex.aggregate(x)
	case *Arith:
		return ex.arith(x)
	case *SQLProject:
		return ex.sqlProject(x)
	case *SQLAggregate:
		return ex.sqlAggregate(x)
	case *Distinct:
		return ex.distinct(x)
	case *Limit:
		return ex.limit(x)
	case *SQLUnion:
		return ex.sqlUnion(x)
	case *SQLDiff:
		return ex.sqlDiff(x)
	}
	return nil, fmt.Errorf("plan: unknown node type %T", n)
}

// ---- cell helpers (active tracer only) ----

// cellsAt builds the witness cells (r, col) for a sorted, duplicate-
// free row set — already row-major sorted by construction.
func (ex *executor) cellsAt(rows []int, col int) []table.CellRef {
	out := ex.ar.cells.get(len(rows))[:len(rows)]
	for i, r := range rows {
		out[i] = table.CellRef{Row: r, Col: col}
	}
	return out
}

// ---- row operators ----

// indexLookup answers a KB lookup on pre-canonicalized keys.
func (ex *executor) indexLookup(col int, keys []string) (*Val, error) {
	t := ex.t
	var rows []int
	if len(keys) == 1 {
		// Posting lists are ascending and duplicate-free, and shared
		// with the table's KB index. Sharing is safe: executors never
		// mutate input row sets, and the boundary detach copies whatever
		// escapes into caller-owned results.
		rows = t.RowsForKey(col, keys[0])
	} else {
		set := ex.ar.rowSet(t.NumRows())
		for _, k := range keys {
			set.AddRows(t.RowsForKey(col, k))
		}
		rows = set.AppendRows(ex.ar.ints.get(t.NumRows()))
	}
	v := ex.ar.val(RowsKind)
	v.Rows = rows
	if ex.trace {
		v.Cells = ex.cellsAt(rows, col)
	}
	return v, nil
}

// lookupValues is indexLookup over a computed value set (the dynamic
// lambda DCS join); keys are canonicalized per execution.
func (ex *executor) lookupValues(col int, vals []table.Value) (*Val, error) {
	t := ex.t
	var rows []int
	if len(vals) == 1 {
		rows = t.RowsForKey(col, vals[0].Key())
	} else {
		set := ex.ar.rowSet(t.NumRows())
		for _, v := range vals {
			set.AddRows(t.RowsForKey(col, v.Key()))
		}
		rows = set.AppendRows(ex.ar.ints.get(t.NumRows()))
	}
	v := ex.ar.val(RowsKind)
	v.Rows = rows
	if ex.trace {
		v.Cells = ex.cellsAt(rows, col)
	}
	return v, nil
}

func (ex *executor) compare(x *Compare) (*Val, error) {
	t := ex.t
	var rows []int
	var err error
	switch x.Cmp {
	case "=", "!=":
		switch {
		case !t.KeyEqualConsistent(x.Col, x.V):
			// Key identity and Value.Equal disagree here (NaN literal,
			// or Unicode case folds outside ASCII): scan with the
			// interpreter's Equal semantics.
			rows, err = ex.scanPred(x.pred(), nil)
		case x.Cmp == "=":
			rows = t.RowsForKey(x.Col, x.canonicalKey())
		default:
			// Entity inequality: complement of the KB posting list, walked
			// with two pointers so no per-row string comparison happens.
			rows, err = ex.filterRows(rowFilter{
				rows:   ex.ar.identity(t.NumRows()),
				except: t.RowsForKey(x.Col, x.canonicalKey()),
			}, true)
		}
	default:
		lit, ok := x.V.Float()
		if !ok {
			// Range operators apply only between numeric values: a text
			// literal matches nothing.
			break
		}
		// A NaN literal breaks binary search (every ordering predicate
		// is false on NaN); fall back to the Value.Compare scan, which
		// reproduces the interpreter's NaN behaviour.
		useIndex := t.ColumnIndexable(x.Col) && !math.IsNaN(lit)
		var zs *zoneScan
		if !useIndex || !t.NumericIndexBuilt(x.Col) {
			// Zone maps can beat the sorted index only before the index
			// exists (they cost one column walk vs an O(n log n) sort);
			// once the index is resident its sublinear search always wins.
			zs = ex.zonePred(x.pred())
		}
		if useIndex && (zs == nil || 2*zs.none < len(zs.verdicts)) {
			// Binary search on the cached sorted index + bitset replay is
			// sublinear in the table size — it beats any direct scan at
			// every scale. An indexable column leaves it for the zones
			// only when at least half the morsels are provably empty;
			// otherwise building the index amortises better across queries.
			rows = ex.rangeFromIndex(x.Col, x.Cmp, lit)
		} else {
			rows, err = ex.scanPred(x.pred(), zs)
		}
	}
	if err != nil {
		return nil, err
	}
	v := ex.ar.val(RowsKind)
	v.Rows = rows
	if ex.trace {
		v.Cells = ex.cellsAt(rows, x.Col)
	}
	return v, nil
}

// pred is the comparison as a predicate leaf, built only on the paths
// that evaluate it per row or per zone (the index paths allocate
// nothing).
func (x *Compare) pred() *CmpPred { return &CmpPred{Col: x.Col, Op: x.Cmp, V: x.V} }

// scanPred evaluates a predicate without FuncPreds over the whole row
// space, under the zone verdicts zs when there are any.
func (ex *executor) scanPred(p Pred, zs *zoneScan) ([]int, error) {
	keep, err := ex.compilePred(p)
	if err != nil {
		return nil, err
	}
	return ex.filterRows(rowFilter{rows: ex.ar.identity(ex.t.NumRows()), zones: zs, keep: keep}, true)
}

// rangeFromIndex answers a numeric range predicate from the sorted
// numeric index in O(log n) plus output size. The matching rows arrive
// in value order; replaying them through a bitset re-emits them in
// ascending record order without a sort.
func (ex *executor) rangeFromIndex(col int, op string, lit float64) []int {
	idx := ex.t.NumericSortedRows(col)
	nums, _ := ex.t.ColumnNums(col)
	ge := func(i int) bool { return nums[idx[i]] >= lit }
	gt := func(i int) bool { return nums[idx[i]] > lit }
	var part []int
	switch op {
	case "<":
		part = idx[:sort.Search(len(idx), ge)]
	case "<=":
		part = idx[:sort.Search(len(idx), gt)]
	case ">":
		part = idx[sort.Search(len(idx), gt):]
	case ">=":
		part = idx[sort.Search(len(idx), ge):]
	}
	set := ex.ar.rowSet(ex.t.NumRows())
	set.AddRows(part)
	return set.AppendRows(ex.ar.ints.get(len(part)))
}

func (ex *executor) filter(x *Filter) (*Val, error) {
	in, err := ex.run(x.Input)
	if err != nil {
		return nil, err
	}
	keep, err := ex.compilePred(x.Pred)
	if err != nil {
		return nil, err
	}
	var zs *zoneScan
	if _, isScan := x.Input.(*Scan); isScan {
		// A filter directly over the scan covers the whole row space, so
		// its morsels line up with the zone maps: consult them before
		// evaluating a single row.
		zs = ex.zonePred(x.Pred)
	}
	// Compiled non-FuncPred closures are pure column reads, safe to
	// evaluate from worker goroutines; opaque FuncPreds may run nested
	// executions and never fork.
	rows, err := ex.filterRows(rowFilter{rows: in.Rows, zones: zs, keep: keep}, !predHasFunc(x.Pred))
	if err != nil {
		return nil, err
	}
	v := ex.ar.val(RowsKind)
	v.Rows = rows
	if ex.trace {
		if cp, ok := x.Pred.(*CmpPred); ok {
			v.Cells = ex.cellsAt(rows, cp.Col)
		}
	}
	return v, nil
}

// compilePred lowers a predicate tree into one closure, hoisting the
// literal key / numeric conversions out of the per-row loop.
func (ex *executor) compilePred(p Pred) (func(row int) (bool, error), error) {
	t := ex.t
	switch x := p.(type) {
	case *CmpPred:
		switch x.Op {
		case "=", "!=":
			if !t.KeyEqualConsistent(x.Col, x.V) {
				// Key identity and Value.Equal disagree here (NaN, or
				// Unicode case folds outside ASCII): keep the
				// interpreter's Equal semantics.
				col, v, want := x.Col, x.V, x.Op == "="
				return func(r int) (bool, error) { return t.Value(r, col).Equal(v) == want, nil }, nil
			}
			// Resolve the literal to its key code once: the per-row test
			// is then one integer comparison, and a key no cell of the
			// column holds makes the predicate a constant.
			codes := t.ColumnKeyCodes(x.Col)
			code, ok := t.KeyCode(x.Col, x.V.Key())
			switch {
			case !ok:
				absent := x.Op == "!="
				return func(int) (bool, error) { return absent, nil }, nil
			case x.Op == "=":
				return func(r int) (bool, error) { return codes[r] == code, nil }, nil
			}
			return func(r int) (bool, error) { return codes[r] != code, nil }, nil
		case "<", "<=", ">", ">=":
			lit, ok := x.V.Float()
			if !ok {
				return func(int) (bool, error) { return false, nil }, nil
			}
			if !t.ColumnIndexable(x.Col) || math.IsNaN(lit) {
				op, v := x.Op, x.V
				col := x.Col
				return func(r int) (bool, error) {
					c := t.Value(r, col)
					if !c.IsNumeric() {
						return false, nil
					}
					cmp := c.Compare(v)
					switch op {
					case "<":
						return cmp < 0, nil
					case "<=":
						return cmp <= 0, nil
					case ">":
						return cmp > 0, nil
					default:
						return cmp >= 0, nil
					}
				}, nil
			}
			nums, isNum := t.ColumnNums(x.Col)
			switch x.Op {
			case "<":
				return func(r int) (bool, error) { return isNum[r] && nums[r] < lit, nil }, nil
			case "<=":
				return func(r int) (bool, error) { return isNum[r] && nums[r] <= lit, nil }, nil
			case ">":
				return func(r int) (bool, error) { return isNum[r] && nums[r] > lit, nil }, nil
			default:
				return func(r int) (bool, error) { return isNum[r] && nums[r] >= lit, nil }, nil
			}
		default:
			return nil, fmt.Errorf("plan: unknown comparison operator %q", x.Op)
		}
	case *AndPred:
		l, err := ex.compilePred(x.L)
		if err != nil {
			return nil, err
		}
		r, err := ex.compilePred(x.R)
		if err != nil {
			return nil, err
		}
		return func(row int) (bool, error) {
			ok, err := l(row)
			if err != nil || !ok {
				return false, err
			}
			return r(row)
		}, nil
	case *OrPred:
		l, err := ex.compilePred(x.L)
		if err != nil {
			return nil, err
		}
		r, err := ex.compilePred(x.R)
		if err != nil {
			return nil, err
		}
		return func(row int) (bool, error) {
			ok, err := l(row)
			if err != nil || ok {
				return ok, err
			}
			return r(row)
		}, nil
	case *NotPred:
		f, err := ex.compilePred(x.P)
		if err != nil {
			return nil, err
		}
		return func(row int) (bool, error) {
			ok, err := f(row)
			return !ok, err
		}, nil
	case *FuncPred:
		return x.Fn, nil
	}
	return nil, fmt.Errorf("plan: unknown predicate type %T", p)
}

func (ex *executor) shift(x *Shift) (*Val, error) {
	in, err := ex.run(x.Input)
	if err != nil {
		return nil, err
	}
	n := ex.t.NumRows()
	rows := ex.ar.ints.get(len(in.Rows))
	for _, r := range in.Rows {
		if s := r + x.Delta; s >= 0 && s < n {
			rows = append(rows, s)
		}
	}
	// Input rows are ascending and duplicate-free, so a constant shift
	// clipped to the table stays ascending and duplicate-free. The
	// witness cells of a pure record shift are inherited from the
	// argument: the shift itself touches no new cells.
	v := ex.ar.val(RowsKind)
	v.Rows = rows
	v.Cells = in.Cells
	return v, nil
}

func (ex *executor) intersect(x *Intersect) (*Val, error) {
	l, err := ex.run(x.L)
	if err != nil {
		return nil, err
	}
	r, err := ex.run(x.R)
	if err != nil {
		return nil, err
	}
	// The bitset is written before the drive and only read inside it.
	inR := ex.ar.rowSet(ex.t.NumRows())
	inR.AddRows(r.Rows)
	rows, err := ex.filterRows(rowFilter{rows: l.Rows, keep: func(rec int) (bool, error) {
		return inR.Contains(rec), nil
	}}, true)
	if err != nil {
		return nil, err
	}
	v := ex.ar.val(RowsKind)
	v.Rows = rows
	if ex.trace {
		// Table 10: PO(records1 ⊓ records2) = PO(records1) ∩ PO(records2).
		// Both cell sets are sorted and duplicate-free (the Val
		// invariant), so the intersection is one merge walk.
		v.Cells = table.IntersectSortedCells(
			ex.ar.cells.get(min(len(l.Cells), len(r.Cells))), l.Cells, r.Cells)
	}
	return v, nil
}

func (ex *executor) union(x *Union) (*Val, error) {
	l, err := ex.run(x.L)
	if err != nil {
		return nil, err
	}
	r, err := ex.run(x.R)
	if err != nil {
		return nil, err
	}
	v := ex.ar.val(l.Kind)
	if l.Kind == RowsKind {
		set := ex.ar.rowSet(ex.t.NumRows())
		set.AddRows(l.Rows)
		set.AddRows(r.Rows)
		v.Rows = set.AppendRows(ex.ar.ints.get(len(l.Rows) + len(r.Rows)))
	} else {
		v.Values = ex.dedupValues(l.Values, r.Values)
	}
	if ex.trace {
		v.Cells = table.MergeSortedCells(
			ex.ar.cells.get(len(l.Cells)+len(r.Cells)), l.Cells, r.Cells)
	}
	return v, nil
}

// dedupValues unions two value lists preserving first-appearance
// order, deduplicating by canonical key through the arena hash table
// (FNV-1a row hash, KeyEqual confirming candidates).
func (ex *executor) dedupValues(a, b []table.Value) []table.Value {
	out := ex.ar.vals.get(len(a) + len(b))
	d := &ex.ar.ded
	d.init(len(a) + len(b))
	var cand table.Value
	eq := func(j int32) bool { return table.KeyEqual(out[j], cand) }
	for _, vs := range [2][]table.Value{a, b} {
		for _, v := range vs {
			cand = v
			h := v.HashKey(table.FNVOffset)
			if _, found := d.lookup(h, eq); found {
				continue
			}
			d.insert(h, int32(len(out)))
			out = append(out, v)
		}
	}
	return out
}

func (ex *executor) superlative(x *Superlative) (*Val, error) {
	in, err := ex.run(x.Input)
	if err != nil {
		return nil, err
	}
	rows := in.Rows
	if len(rows) == 0 {
		return ex.ar.val(RowsKind), nil
	}
	t := ex.t
	var out []int
	if t.ColumnAllNumeric(x.Col) && t.ColumnIndexable(x.Col) {
		nums, _ := t.ColumnNums(x.Col)
		if len(rows) == t.NumRows() {
			// Full-table superlative. If the sorted index is not resident
			// yet, the zone maps answer cheaper: the global extreme folds
			// from the zone bounds and only zones achieving it are read.
			if zr, ok, err := ex.zoneSuperlative(x.Col, x.Max, nums); err != nil {
				return nil, err
			} else if ok {
				v := ex.ar.val(RowsKind)
				v.Rows = zr
				if ex.trace {
					v.Cells = ex.cellsAt(zr, x.Col)
				}
				return v, nil
			}
			// The extreme's tie group is a contiguous run of the sorted
			// numeric index, and within a tie group the index orders by
			// record — so the group can be shared as a subslice, already
			// ascending, no sort, no copy.
			idx := t.NumericSortedRows(x.Col)
			if x.Max {
				best := nums[idx[len(idx)-1]]
				i := len(idx) - 1
				for i >= 0 && nums[idx[i]] == best {
					i--
				}
				out = idx[i+1:]
			} else {
				best := nums[idx[0]]
				i := 0
				for i < len(idx) && nums[idx[i]] == best {
					i++
				}
				out = idx[:i]
			}
		} else {
			// Subset superlative: two passes over the float column, no
			// Value boxing — the extreme, then the rows achieving it.
			best, err := ex.extreme(rows, nums, x.Max)
			if err != nil {
				return nil, err
			}
			out, err = ex.filterRows(rowFilter{rows: rows, keep: func(r int) (bool, error) {
				return nums[r] == best, nil
			}}, true)
			if err != nil {
				return nil, err
			}
		}
	} else {
		// Value.Compare is not guaranteed transitive across mixed-kind
		// or NaN cells, so this fold is order-sensitive and never forks.
		best := t.Value(rows[0], x.Col)
		err := ex.eachMorsel(len(rows), func(_, lo, hi int) error {
			for _, r := range rows[lo:hi] {
				v := t.Value(r, x.Col)
				if (x.Max && v.Compare(best) > 0) || (!x.Max && v.Compare(best) < 0) {
					best = v
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out, err = ex.filterRows(rowFilter{rows: rows, keep: func(r int) (bool, error) {
			return t.Value(r, x.Col).Compare(best) == 0, nil
		}}, false)
		if err != nil {
			return nil, err
		}
	}
	v := ex.ar.val(RowsKind)
	v.Rows = out
	if ex.trace {
		v.Cells = ex.cellsAt(out, x.Col)
	}
	return v, nil
}

// ---- value operators ----

func (ex *executor) projectCol(x *ProjectCol) (*Val, error) {
	in, err := ex.run(x.Input)
	if err != nil {
		return nil, err
	}
	// The distinct values, in first-appearance order, are the values at
	// the first row of each key group.
	reps, _, err := ex.groupByKey(in.Rows, x.Col, false)
	if err != nil {
		return nil, err
	}
	vals := ex.ar.vals.get(len(reps))
	for _, r := range reps {
		vals = append(vals, ex.t.Value(r, x.Col))
	}
	v := ex.ar.val(ValuesKind)
	v.Values = vals
	if ex.trace {
		v.Cells = ex.cellsAt(in.Rows, x.Col)
	}
	return v, nil
}

func (ex *executor) indexSuper(x *IndexSuper) (*Val, error) {
	in, err := ex.run(x.Input)
	if err != nil {
		return nil, err
	}
	if len(in.Rows) == 0 {
		return ex.ar.val(ValuesKind), nil
	}
	r := in.Rows[len(in.Rows)-1]
	if x.First {
		r = in.Rows[0]
	}
	v := ex.ar.val(ValuesKind)
	v.Values = append(ex.ar.vals.get(1), ex.t.Value(r, x.Col))
	if ex.trace {
		v.Cells = append(ex.ar.cells.get(1), table.CellRef{Row: r, Col: x.Col})
	}
	return v, nil
}

func (ex *executor) mostFrequent(x *MostFrequent) (*Val, error) {
	t := ex.t
	var candidates []table.Value
	if x.Input == nil {
		candidates = t.DistinctColumnValues(x.Col)
	} else {
		in, err := ex.run(x.Input)
		if err != nil {
			return nil, err
		}
		candidates = in.Values
	}
	if len(candidates) == 0 {
		return ex.ar.val(ValuesKind), nil
	}
	// Ties break towards the value appearing earliest in the table,
	// matching the SQL translation's GROUP BY (groups form in row order)
	// with a stable ORDER BY COUNT(Index) DESC LIMIT 1 (Table 10).
	bestCount := 0
	bestFirst := 0
	var winner table.Value
	for _, v := range candidates {
		occ := t.RowsForKey(x.Col, v.Key())
		if len(occ) == 0 {
			continue
		}
		if len(occ) > bestCount || (len(occ) == bestCount && occ[0] < bestFirst) {
			bestCount = len(occ)
			bestFirst = occ[0]
			winner = v
		}
	}
	if bestCount == 0 {
		return ex.ar.val(ValuesKind), nil
	}
	v := ex.ar.val(ValuesKind)
	v.Values = append(ex.ar.vals.get(1), winner)
	if ex.trace {
		v.Cells = ex.cellsAt(t.RowsForKey(x.Col, winner.Key()), x.Col)
	}
	return v, nil
}

func (ex *executor) compareVals(x *CompareVals) (*Val, error) {
	in, err := ex.run(x.Input)
	if err != nil {
		return nil, err
	}
	t := ex.t
	// SQL semantics (Table 10, Comparing Values): the extreme key value
	// over all records whose ValCol value is a candidate, then the
	// DISTINCT ValCol values of records achieving that key.
	pool := ex.ar.ints.get(t.NumRows())
	for _, v := range in.Values {
		pool = append(pool, t.RowsForKey(x.ValCol, v.Key())...)
	}
	if len(pool) == 0 {
		return ex.ar.val(ValuesKind), nil
	}
	best := t.Value(pool[0], x.KeyCol)
	err = ex.eachMorsel(len(pool), func(_, lo, hi int) error {
		for _, r := range pool[lo:hi] {
			k := t.Value(r, x.KeyCol)
			if (x.Max && k.Compare(best) > 0) || (!x.Max && k.Compare(best) < 0) {
				best = k
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := ex.ar.vals.get(len(pool))
	var achieved RowSet
	if ex.trace {
		achieved = ex.ar.rowSet(t.NumRows())
	}
	for _, r := range pool {
		if t.Value(r, x.KeyCol).Compare(best) == 0 {
			out = append(out, t.Value(r, x.ValCol))
			if ex.trace {
				achieved.Add(r)
			}
		}
	}
	v := ex.ar.val(ValuesKind)
	v.Values = ex.dedupValues(out, nil)
	if ex.trace {
		// The bitset replays the achieving rows in ascending record
		// order, giving the sorted duplicate-free witness cells directly.
		rows := achieved.AppendRows(ex.ar.ints.get(achieved.Count()))
		v.Cells = ex.cellsAt(rows, x.ValCol)
	}
	return v, nil
}

// ---- scalar operators ----

func (ex *executor) aggregate(x *Aggregate) (*Val, error) {
	in, err := ex.run(x.Input)
	if err != nil {
		return nil, err
	}
	if x.Fn == "count" {
		n := len(in.Values)
		if in.Kind == RowsKind {
			n = len(in.Rows)
		}
		v := ex.ar.val(ScalarKind)
		v.Values = append(ex.ar.vals.get(1), table.NumberValue(float64(n)))
		v.Aggr = "count"
		v.Cells = in.Cells
		return v, nil
	}
	if len(in.Values) == 0 {
		return nil, errorf(x.Src, "%s over an empty set", x.Fn)
	}
	out, err := ex.foldValues(x, in.Values)
	if err != nil {
		return nil, err
	}
	v := ex.ar.val(ScalarKind)
	v.Values = append(ex.ar.vals.get(1), out)
	v.Aggr = x.Fn
	v.Cells = in.Cells
	return v, nil
}

func (ex *executor) arith(x *Arith) (*Val, error) {
	l, err := ex.run(x.L)
	if err != nil {
		return nil, err
	}
	r, err := ex.run(x.R)
	if err != nil {
		return nil, err
	}
	lf, err := arithOperand(x, l, "left")
	if err != nil {
		return nil, err
	}
	rf, err := arithOperand(x, r, "right")
	if err != nil {
		return nil, err
	}
	var out float64
	switch x.Op2 {
	case "-":
		out = lf - rf
	case "+":
		out = lf + rf
	default:
		return nil, errorf(x.Src, "unknown arithmetic operator %q", x.Op2)
	}
	v := ex.ar.val(ScalarKind)
	v.Values = append(ex.ar.vals.get(1), table.NumberValue(out))
	if ex.trace {
		v.Cells = table.MergeSortedCells(
			ex.ar.cells.get(len(l.Cells)+len(r.Cells)), l.Cells, r.Cells)
	}
	return v, nil
}

func arithOperand(x *Arith, v *Val, side string) (float64, error) {
	if len(v.Values) != 1 {
		return 0, errorf(x.Src, "%s operand of sub must be a single value, got %d", side, len(v.Values))
	}
	f, ok := v.Values[0].Float()
	if !ok {
		return 0, errorf(x.Src, "%s operand of sub is not numeric: %q", side, v.Values[0])
	}
	return f, nil
}

// ---- SQL operators ----

func (ex *executor) sqlProject(x *SQLProject) (*Val, error) {
	in, err := ex.run(x.Input)
	if err != nil {
		return nil, err
	}
	t := ex.t
	out := ex.ar.val(TableKind)
	cols := ex.ar.strs.get(len(x.Items))
	for _, it := range x.Items {
		cols = append(cols, it.Label)
	}
	out.Cols = cols

	nrows, ncols := len(in.Rows), len(x.Items)
	// Output rows are subslices of one flat arena chunk; the chunk is
	// sized exactly, so it never reallocates under the rows.
	flat := ex.ar.vals.get(nrows * ncols)
	data := ex.ar.data.get(nrows)
	src := ex.ar.ints.get(nrows)
	var sortKeys []table.Value
	if x.Order != nil {
		sortKeys = ex.ar.vals.get(nrows)
	}
	err = ex.eachMorsel(nrows, func(_, lo, hi int) error {
		for _, r := range in.Rows[lo:hi] {
			base := len(flat)
			for i := range x.Items {
				it := &x.Items[i]
				switch {
				case it.Col >= 0:
					flat = append(flat, t.Value(r, it.Col))
				case it.Index:
					flat = append(flat, table.NumberValue(float64(r)))
				default:
					v, err := it.Fn(r)
					if err != nil {
						return err
					}
					flat = append(flat, v)
				}
			}
			data = append(data, flat[base:len(flat):len(flat)])
			src = append(src, r)
			if x.Order != nil {
				var k table.Value
				switch {
				case x.Order.Col >= 0:
					k = t.Value(r, x.Order.Col)
				case x.Order.Index:
					k = table.NumberValue(float64(r))
				default:
					v, err := x.Order.Fn(r)
					if err != nil {
						return err
					}
					k = v
				}
				sortKeys = append(sortKeys, k)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if x.Order != nil {
		data, src = ex.sortTable(data, src, sortKeys, x.Order.Desc)
	}
	out.Data = data
	out.Src = src
	return out, nil
}

// sortTable stable-sorts a projected table by per-row sort keys via an
// arena permutation (matching sort.SliceStable semantics) and returns
// the reordered data/src buffers.
func (ex *executor) sortTable(data [][]table.Value, src []int, keys []table.Value, desc bool) ([][]table.Value, []int) {
	perm := ex.ar.ints.get(len(data))
	for i := range data {
		perm = append(perm, i)
	}
	slices.SortStableFunc(perm, func(a, b int) int {
		c := keys[a].Compare(keys[b])
		if desc {
			return -c
		}
		return c
	})
	outData := ex.ar.data.get(len(data))
	outSrc := ex.ar.ints.get(len(src))
	for _, p := range perm {
		outData = append(outData, data[p])
		outSrc = append(outSrc, src[p])
	}
	return outData, outSrc
}

func (ex *executor) sqlAggregate(x *SQLAggregate) (*Val, error) {
	in, err := ex.run(x.Input)
	if err != nil {
		return nil, err
	}
	// Group the input rows in first-appearance order. Each group's rows
	// land in a contiguous segment of one flat arena buffer (a stable
	// counting sort), so grouping allocates nothing and builds no
	// per-group key strings.
	var groupRows func(g int) []int
	var ngroups int
	if x.GroupCol < 0 {
		ngroups = 1
		groupRows = func(int) []int { return in.Rows }
	} else {
		reps, gids, err := ex.groupByKey(in.Rows, x.GroupCol, true)
		if err != nil {
			return nil, err
		}
		ngroups = len(reps)
		counts := ex.ar.ints.get(ngroups)[:ngroups] // rows per group
		clear(counts)
		for _, g := range gids {
			counts[g]++
		}
		flat := ex.ar.ints.get(len(in.Rows))[:len(in.Rows)]
		starts := ex.ar.ints.get(ngroups)
		cursor := ex.ar.ints.get(ngroups)
		off := 0
		for _, c := range counts {
			starts = append(starts, off)
			cursor = append(cursor, off)
			off += c
		}
		for i, r := range in.Rows {
			g := gids[i]
			flat[cursor[g]] = r
			cursor[g]++
		}
		groupRows = func(g int) []int { return flat[starts[g] : starts[g]+counts[g]] }
	}

	out := ex.ar.val(TableKind)
	cols := ex.ar.strs.get(len(x.Items))
	for _, it := range x.Items {
		cols = append(cols, it.Label)
	}
	out.Cols = cols

	flatVals := ex.ar.vals.get(ngroups * len(x.Items))
	data := ex.ar.data.get(ngroups)
	var sortKeys []table.Value
	if x.Order != nil {
		sortKeys = ex.ar.vals.get(ngroups)
	}
	for g := 0; g < ngroups; g++ {
		rows := groupRows(g)
		base := len(flatVals)
		for i := range x.Items {
			v, err := x.Items[i].Fn(rows)
			if err != nil {
				return nil, err
			}
			flatVals = append(flatVals, v)
		}
		data = append(data, flatVals[base:len(flatVals):len(flatVals)])
		if x.Order != nil {
			v, err := x.Order(rows)
			if err != nil {
				return nil, err
			}
			sortKeys = append(sortKeys, v)
		}
	}
	src := ex.ar.ints.get(ngroups)
	for range data {
		src = append(src, -1)
	}
	if x.Order != nil {
		data, src = ex.sortTable(data, src, sortKeys, x.Desc)
	}
	out.Data = data
	out.Src = src
	return out, nil
}

// hashTableRow chains the FNV-1a key hash of every cell with a field
// separator — the allocation-free replacement for the legacy \x1f
// string row keys.
func hashTableRow(row []table.Value) uint64 {
	h := table.FNVOffset
	for j, v := range row {
		if j > 0 {
			h = table.HashByte(h, 0x1f)
		}
		h = v.HashKey(h)
	}
	return h
}

// rowsKeyEqual is the collision-safe confirmation behind the row hash:
// two rows are duplicates exactly when every cell pair shares a
// canonical key (the legacy row-key string equality).
func rowsKeyEqual(a, b []table.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !table.KeyEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func (ex *executor) distinct(x *Distinct) (*Val, error) {
	in, err := ex.run(x.Input)
	if err != nil {
		return nil, err
	}
	out := ex.ar.val(TableKind)
	out.Cols = in.Cols
	d := &ex.ar.ded
	d.init(len(in.Data))
	data := ex.ar.data.get(len(in.Data))
	src := ex.ar.ints.get(len(in.Data))
	var cur []table.Value
	eq := func(j int32) bool { return rowsKeyEqual(in.Data[j], cur) }
	err = ex.eachMorsel(len(in.Data), func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			cur = in.Data[i]
			h := hashTableRow(cur)
			if _, found := d.lookup(h, eq); found {
				continue
			}
			d.insert(h, int32(i))
			data = append(data, in.Data[i])
			src = append(src, in.Src[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.Data = data
	out.Src = src
	return out, nil
}

func (ex *executor) limit(x *Limit) (*Val, error) {
	in, err := ex.run(x.Input)
	if err != nil {
		return nil, err
	}
	if x.N >= 0 && len(in.Data) > x.N {
		// Copy the Data/Src headers instead of aliasing in.Data[:N]: a
		// truncated result must never share a backing array wider than
		// itself with its input (the boundary detach would otherwise be
		// the only thing standing between a cached result and a reused
		// pooled buffer).
		out := ex.ar.val(TableKind)
		out.Cols = in.Cols
		out.Data = append(ex.ar.data.get(x.N), in.Data[:x.N]...)
		out.Src = append(ex.ar.ints.get(x.N), in.Src[:x.N]...)
		return out, nil
	}
	return in, nil
}

func (ex *executor) sqlUnion(x *SQLUnion) (*Val, error) {
	l, err := ex.run(x.L)
	if err != nil {
		return nil, err
	}
	r, err := ex.run(x.R)
	if err != nil {
		return nil, err
	}
	if len(l.Cols) != len(r.Cols) {
		return nil, fmt.Errorf("sql exec: UNION of incompatible widths %d and %d", len(l.Cols), len(r.Cols))
	}
	out := ex.ar.val(TableKind)
	out.Cols = l.Cols
	d := &ex.ar.ded
	d.init(len(l.Data) + len(r.Data))
	data := ex.ar.data.get(len(l.Data) + len(r.Data))
	src := ex.ar.ints.get(len(l.Data) + len(r.Data))
	var cur []table.Value
	// Payloads index the deduplicated output, which spans both inputs.
	eq := func(j int32) bool { return rowsKeyEqual(data[j], cur) }
	for _, side := range [2]*Val{l, r} {
		err := ex.eachMorsel(len(side.Data), func(_, lo, hi int) error {
			for i := lo; i < hi; i++ {
				cur = side.Data[i]
				h := hashTableRow(cur)
				if _, found := d.lookup(h, eq); found {
					continue
				}
				d.insert(h, int32(len(data)))
				data = append(data, side.Data[i])
				src = append(src, side.Src[i])
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	out.Data = data
	out.Src = src
	return out, nil
}

func (ex *executor) sqlDiff(x *SQLDiff) (*Val, error) {
	l, err := ex.scalarTable(x.L)
	if err != nil {
		return nil, err
	}
	r, err := ex.scalarTable(x.R)
	if err != nil {
		return nil, err
	}
	lf, lok := l.Float()
	rf, rok := r.Float()
	if !lok || !rok {
		return nil, fmt.Errorf("sql exec: difference of non-numeric values %q and %q", l, r)
	}
	out := ex.ar.val(TableKind)
	out.Cols = append(ex.ar.strs.get(1), "diff")
	row := append(ex.ar.vals.get(1), table.NumberValue(lf-rf))
	out.Data = append(ex.ar.data.get(1), row)
	out.Src = append(ex.ar.ints.get(1), -1)
	return out, nil
}

// scalarTable executes a table-kind child that must produce exactly
// one row and column, and returns that value.
func (ex *executor) scalarTable(n Node) (table.Value, error) {
	v, err := ex.run(n)
	if err != nil {
		return table.Value{}, err
	}
	if len(v.Data) != 1 || len(v.Data[0]) != 1 {
		return table.Value{}, fmt.Errorf("sql exec: scalar subquery returned %dx%d result", len(v.Data), len(v.Cols))
	}
	return v.Data[0][0], nil
}
