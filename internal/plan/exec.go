package plan

import (
	"context"
	"fmt"
	"sort"

	"nlexplain/internal/table"
)

// Val is the denotation of a plan execution's root, as RunIntoCtx
// hands it to the caller. Exactly the fields of its Kind are
// meaningful: Rows for RowsKind (ascending record indices), Values for
// ValuesKind and ScalarKind (ScalarKind holds the single scalar in
// Values[0] and the producing aggregate, if any, in Aggr).
//
// Cells holds the root's PO witness cells by column, computed only
// under an active Tracer; with an inactive tracer it is the empty
// level.
//
// A Val is ordinary heap memory, detached from the execution, so
// callers and caches may hold it forever.
type Val struct {
	Kind   Kind
	Rows   []int
	Values []table.Value
	Aggr   string
	Cells  table.Level
}

// val is the runtime denotation of a plan node inside one execution:
// Val's fields, with row ids 32 bits wide, as the table stores them,
// and the witness cells as spans, ascending by column, whose rows are
// the operator's own or its inputs', shared rather than copied. A val
// and its slices live in the execution's pooled arena.
type val struct {
	Kind   Kind
	Rows   []int32
	Values []table.Value
	Aggr   string
	Cells  []table.Span
}

// RunIntoCtx executes the plan over a table in executor x (nil: the
// package default) under the given tracer (nil is treated as Noop:
// answer-only execution) and deposits the detached result in *out,
// which callers own (dcs puts it on the stack and copies the fields
// into its own result type); *out is overwritten entirely. Cancellation is cooperative: the morsel driver polls ctx at
// every morsel boundary, forked or inline, returning ctx.Err() once it
// fires — so a caller whose deadline expired never burns a full
// million-row scan. A nil ctx disables the checks.
func RunIntoCtx(ctx context.Context, x *Exec, out *Val, n Node, t *table.Table, tr Tracer) error {
	if tr == nil {
		tr = Noop{}
	}
	if x == nil {
		x = &defaultExec
	}
	ar := getArena()
	defer ar.release()
	ex := &ar.ex
	ex.t, ex.tr, ex.trace, ex.ar, ex.ctx, ex.x = t, tr, tr.Active(), ar, ctx, x
	ex.cfg = x.config(t.NumRows())
	v, err := ex.run(n)
	if ex.usedParallel {
		x.ParallelRuns.Add(1)
	} else {
		x.SerialRuns.Add(1)
	}
	if err != nil {
		return err
	}
	detachInto(out, v, t.NumRows())
	return nil
}

// detachInto deep-copies v — whose slices live in arena scratch — into
// ordinary heap memory in *out, widening its rows to int and holding
// its witness spans as a level over a table of rows records. Empty
// slices normalize to nil, so the copy costs O(result) bytes but O(1)
// allocations.
func detachInto(out *Val, v *val, rows int) {
	*out = Val{Kind: v.Kind, Aggr: v.Aggr}
	if len(v.Rows) > 0 {
		out.Rows = make([]int, len(v.Rows))
		for i, r := range v.Rows {
			out.Rows[i] = int(r)
		}
	}
	if len(v.Values) > 0 {
		out.Values = append(make([]table.Value, 0, len(v.Values)), v.Values...)
	}
	out.Cells = table.NewLevel(rows, v.Cells)
}

type executor struct {
	t     *table.Table
	tr    Tracer
	trace bool
	ar    *arena

	// ctx, when non-nil, is polled at morsel boundaries so abandoned
	// executions stop early.
	ctx context.Context
	// x is the Exec the run counts in, cfg its settings as resolved at
	// the start.
	x   *Exec
	cfg execConfig
	// usedParallel records whether the driver forked for any kernel,
	// feeding the parallel/serial run counters.
	usedParallel bool

	// Kernel state. It lives here, in the pooled arena, rather than in
	// closures: a kernel handed to a driver that can start goroutines
	// escapes at the call site whichever way the driver then runs it.
	// One of each suffices — an operator finishes its drive before the
	// next one starts.
	filt rowFilter
	ext  extremeScan
	grp  groupScan
	agg  aggFold
}

func (ex *executor) run(n Node) (*val, error) {
	v, err := ex.eval(n)
	if err != nil {
		return nil, err
	}
	if ex.trace {
		ex.tr.Operator(n.Op(), v.Cells)
	}
	return v, nil
}

func (ex *executor) eval(n Node) (*val, error) {
	switch x := n.(type) {
	case *Scan:
		v := ex.ar.val(RowsKind)
		v.Rows = identity(ex.t.NumRows())
		return v, nil
	case *Lookup:
		in, err := ex.run(x.Input)
		if err != nil {
			return nil, err
		}
		return ex.lookup(x.Col, in.Values)
	case *Compare:
		return ex.compare(x)
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
	}
	return nil, fmt.Errorf("plan: unknown node type %T", n)
}

// ---- witness helpers (active tracer only) ----

// span is the witness of an operator that read col at rows, which are
// ascending and distinct: one span sharing the rows, or none.
func (ex *executor) span(rows []int32, col int) []table.Span {
	if len(rows) == 0 {
		return nil
	}
	return append(ex.ar.spans.get(1), table.Span{Col: col, Rows: rows})
}

// combine merges two witnesses column by column: their union, or with
// both set their intersection, cell for cell. A column both name keeps
// the rows either has, or the rows both have; a column one names is
// kept as it is, or dropped. Table 10's PO(r1 ⊓ r2) = PO(r1) ∩ PO(r2)
// is the intersection.
func (ex *executor) combine(a, b []table.Span, both bool) []table.Span {
	out := ex.ar.spans.get(len(a) + len(b))
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || len(a) > 0 && a[0].Col < b[0].Col:
			if !both {
				out = append(out, a[0])
			}
			a = a[1:]
		case len(a) == 0 || b[0].Col < a[0].Col:
			if !both {
				out = append(out, b[0])
			}
			b = b[1:]
		default:
			set := ex.ar.rowSet(ex.t.NumRows())
			set.AddRows(b[0].Rows)
			var rows []int32
			if both {
				rows = ex.ar.rows.get(min(len(a[0].Rows), len(b[0].Rows)))
				for _, r := range a[0].Rows {
					if set.Contains(r) {
						rows = append(rows, r)
					}
				}
			} else {
				set.AddRows(a[0].Rows)
				rows = set.AppendRows(ex.ar.rows.get(set.Count()))
			}
			if len(rows) > 0 {
				out = append(out, table.Span{Col: a[0].Col, Rows: rows})
			}
			a, b = a[1:], b[1:]
		}
	}
	return out
}

// ---- row operators ----

// lookup answers the join C.v from the table's KB index, one value
// at a time.
func (ex *executor) lookup(col int, vals []table.Value) (*val, error) {
	t := ex.t
	var rows []int32
	if len(vals) == 1 {
		// Posting lists are ascending and duplicate-free, and shared
		// with the table's KB index. Sharing is safe: executors never
		// mutate input row sets, and the boundary detach copies whatever
		// escapes into caller-owned results.
		rows = t.RowsFor(col, vals[0])
	} else {
		set := ex.ar.rowSet(t.NumRows())
		for _, v := range vals {
			set.AddRows(t.RowsFor(col, v))
		}
		rows = set.AppendRows(ex.ar.rows.get(set.Count()))
	}
	v := ex.ar.val(RowsKind)
	v.Rows = rows
	if ex.trace {
		v.Cells = ex.span(rows, col)
	}
	return v, nil
}

func (ex *executor) compare(x *Compare) (*val, error) {
	t := ex.t
	var rows []int32
	var err error
	switch x.Cmp {
	case "!=":
		// Entity inequality: every row whose key code is not the one
		// of v — a value no cell shares drops nothing — so no
		// per-row string comparison happens and no postings are read.
		drop, ok := t.KeyCode(x.Col, x.V)
		if !ok {
			drop = uint32(t.NumKeys(x.Col))
		}
		rows, err = ex.filterRows(rowFilter{
			rows:  identity(t.NumRows()),
			codes: t.ColumnKeyCodes(x.Col),
			drop:  drop,
		})
	case "<", "<=", ">", ">=":
		lit, ok := x.V.Float()
		if !ok {
			// Range operators apply only between numeric values: a text
			// literal matches nothing.
			break
		}
		if t.ColumnIndexable(x.Col) {
			rows = ex.rangeFromIndex(x.Col, x.Cmp, lit)
			break
		}
		var zs *zoneScan
		if ex.cfg.zones {
			zs = ex.rangeZones(x.Col, x.Cmp, lit)
		}
		rows, err = ex.filterRows(rowFilter{
			rows:  identity(t.NumRows()),
			zones: zs,
			keep:  ex.rangeMatcher(x.Col, x.Cmp, lit),
		})
	default:
		return nil, fmt.Errorf("plan: unknown comparison operator %q", x.Cmp)
	}
	if err != nil {
		return nil, err
	}
	v := ex.ar.val(RowsKind)
	v.Rows = rows
	if ex.trace {
		v.Cells = ex.span(rows, x.Col)
	}
	return v, nil
}

// rangeMatcher is a range comparison's per-row test over a column that
// spells a NaN, read from the float vector by the rule rangeZones
// decides zones by: a number or date decides on its reading, a NaN cell
// matches <= and >= but never < or >, a text cell matches nothing, and
// a NaN literal matches every numeric cell. Both a text cell and a NaN
// cell read NaN; the cell's kind tells them apart.
func (ex *executor) rangeMatcher(col int, op string, lit float64) func(row int32) bool {
	t, nums := ex.t, ex.t.ColumnNums(col)
	numeric := func(r int32, f float64) bool { return f == f || t.CellKind(int(r), col) != table.String }
	switch op {
	case "<":
		return func(r int32) bool { return nums[r] < lit }
	case "<=":
		return func(r int32) bool { f := nums[r]; return !(f > lit) && numeric(r, f) }
	case ">":
		return func(r int32) bool { return nums[r] > lit }
	default:
		return func(r int32) bool { f := nums[r]; return !(f < lit) && numeric(r, f) }
	}
}

// rangeFromIndex answers a numeric range predicate from the sorted
// numeric index in O(log n) plus output size. `<=` keeps what is not
// above the literal and `>=` what is not below it, so a NaN literal
// keeps the whole index for those two and nothing for `<` and `>`. The
// matching rows arrive in value order; replaying them through a bitset
// re-emits them in ascending record order without a sort.
func (ex *executor) rangeFromIndex(col int, op string, lit float64) []int32 {
	idx := ex.t.NumericSortedRows(col)
	nums := ex.t.ColumnNums(col)
	notLt := func(i int) bool { return !(nums[idx[i]] < lit) }
	gt := func(i int) bool { return nums[idx[i]] > lit }
	var part []int32
	switch op {
	case "<":
		part = idx[:sort.Search(len(idx), notLt)]
	case "<=":
		part = idx[:sort.Search(len(idx), gt)]
	case ">":
		part = idx[sort.Search(len(idx), gt):]
	case ">=":
		part = idx[sort.Search(len(idx), notLt):]
	}
	set := ex.ar.rowSet(ex.t.NumRows())
	set.AddRows(part)
	return set.AppendRows(ex.ar.rows.get(len(part)))
}

func (ex *executor) shift(x *Shift) (*val, error) {
	in, err := ex.run(x.Input)
	if err != nil {
		return nil, err
	}
	n := ex.t.NumRows()
	rows := ex.ar.rows.get(len(in.Rows))
	for _, r := range in.Rows {
		if s := int(r) + x.Delta; s >= 0 && s < n {
			rows = append(rows, int32(s))
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

func (ex *executor) intersect(x *Intersect) (*val, error) {
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
	rows, err := ex.filterRows(rowFilter{rows: l.Rows, keep: inR.Contains})
	if err != nil {
		return nil, err
	}
	v := ex.ar.val(RowsKind)
	v.Rows = rows
	if ex.trace {
		// Table 10: PO(records1 ⊓ records2) = PO(records1) ∩ PO(records2).
		v.Cells = ex.combine(l.Cells, r.Cells, true)
	}
	return v, nil
}

func (ex *executor) union(x *Union) (*val, error) {
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
		v.Rows = set.AppendRows(ex.ar.rows.get(set.Count()))
	} else {
		v.Values = ex.dedupValues(l.Values, r.Values)
	}
	if ex.trace {
		v.Cells = ex.combine(l.Cells, r.Cells, false)
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

func (ex *executor) superlative(x *Superlative) (*val, error) {
	in, err := ex.run(x.Input)
	if err != nil {
		return nil, err
	}
	rows := in.Rows
	if len(rows) == 0 {
		return ex.ar.val(RowsKind), nil
	}
	t := ex.t
	var out []int32
	if t.ColumnAllNumeric(x.Col) && t.ColumnIndexable(x.Col) {
		nums := t.ColumnNums(x.Col)
		if len(rows) == t.NumRows() {
			// Full-table superlative. The extreme's tie group is a
			// contiguous run of the sorted numeric index, and within a tie
			// group the index orders by record — so the group can be
			// shared as a subslice, already ascending, no sort, no copy.
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
			out, err = ex.filterRows(rowFilter{rows: rows, keep: func(r int32) bool {
				return nums[r] == best
			}})
			if err != nil {
				return nil, err
			}
		}
	} else {
		// Value.Compare is not guaranteed transitive across mixed-kind
		// or NaN cells, so this fold is order-sensitive and never forks;
		// the rows tying with its result are collected on the caller too.
		best := t.Value(int(rows[0]), x.Col)
		err := ex.eachMorsel(len(rows), func(_, lo, hi int) {
			for _, r := range rows[lo:hi] {
				v := t.Value(int(r), x.Col)
				if (x.Max && v.Compare(best) > 0) || (!x.Max && v.Compare(best) < 0) {
					best = v
				}
			}
		})
		if err != nil {
			return nil, err
		}
		out = ex.ar.rows.get(len(rows))
		err = ex.eachMorsel(len(rows), func(_, lo, hi int) {
			for _, r := range rows[lo:hi] {
				if t.Value(int(r), x.Col).Compare(best) == 0 {
					out = append(out, r)
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	v := ex.ar.val(RowsKind)
	v.Rows = out
	if ex.trace {
		v.Cells = ex.span(out, x.Col)
	}
	return v, nil
}

// ---- value operators ----

func (ex *executor) projectCol(x *ProjectCol) (*val, error) {
	in, err := ex.run(x.Input)
	if err != nil {
		return nil, err
	}
	// The distinct values, in first-appearance order, are the values at
	// the first row of each key group.
	reps, err := ex.groupByKey(in.Rows, x.Col)
	if err != nil {
		return nil, err
	}
	vals := ex.ar.vals.get(len(reps))
	for _, r := range reps {
		vals = append(vals, ex.t.Value(int(r), x.Col))
	}
	v := ex.ar.val(ValuesKind)
	v.Values = vals
	if ex.trace {
		v.Cells = ex.span(in.Rows, x.Col)
	}
	return v, nil
}

func (ex *executor) indexSuper(x *IndexSuper) (*val, error) {
	in, err := ex.run(x.Input)
	if err != nil {
		return nil, err
	}
	if len(in.Rows) == 0 {
		return ex.ar.val(ValuesKind), nil
	}
	at := in.Rows[len(in.Rows)-1:]
	if x.First {
		at = in.Rows[:1]
	}
	v := ex.ar.val(ValuesKind)
	v.Values = append(ex.ar.vals.get(1), ex.t.Value(int(at[0]), x.Col))
	if ex.trace {
		v.Cells = ex.span(at, x.Col)
	}
	return v, nil
}

func (ex *executor) mostFrequent(x *MostFrequent) (*val, error) {
	t := ex.t
	// Ties break towards the value appearing earliest in the table,
	// matching the SQL translation's GROUP BY (groups form in row order)
	// with a stable ORDER BY COUNT(Index) DESC LIMIT 1 (Table 10).
	var winner table.Value
	var best []int32 // the winner's records
	if x.Input == nil {
		if best = t.MostFrequentRows(x.Col); len(best) > 0 {
			winner = t.Value(int(best[0]), x.Col)
		}
	} else {
		in, err := ex.run(x.Input)
		if err != nil {
			return nil, err
		}
		for _, v := range in.Values {
			occ := t.RowsFor(x.Col, v)
			if len(occ) > len(best) || len(occ) > 0 && len(occ) == len(best) && occ[0] < best[0] {
				winner, best = v, occ
			}
		}
	}
	if len(best) == 0 {
		return ex.ar.val(ValuesKind), nil
	}
	v := ex.ar.val(ValuesKind)
	v.Values = append(ex.ar.vals.get(1), winner)
	if ex.trace {
		v.Cells = ex.span(best, x.Col)
	}
	return v, nil
}

func (ex *executor) compareVals(x *CompareVals) (*val, error) {
	in, err := ex.run(x.Input)
	if err != nil {
		return nil, err
	}
	t := ex.t
	// SQL semantics (Table 10, Comparing Values): the extreme key value
	// over all records whose ValCol value is a candidate, then the
	// DISTINCT ValCol values of records achieving that key. A lookup
	// allocates nothing, so each candidate is looked up twice: once to
	// draw the pool at the size it will hold, once to fill it.
	total := 0
	for _, v := range in.Values {
		total += len(t.RowsFor(x.ValCol, v))
	}
	pool := ex.ar.rows.get(total)
	for _, v := range in.Values {
		pool = append(pool, t.RowsFor(x.ValCol, v)...)
	}
	if len(pool) == 0 {
		return ex.ar.val(ValuesKind), nil
	}
	best := t.Value(int(pool[0]), x.KeyCol)
	err = ex.eachMorsel(len(pool), func(_, lo, hi int) {
		for _, r := range pool[lo:hi] {
			k := t.Value(int(r), x.KeyCol)
			if (x.Max && k.Compare(best) > 0) || (!x.Max && k.Compare(best) < 0) {
				best = k
			}
		}
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
		if t.Value(int(r), x.KeyCol).Compare(best) == 0 {
			out = append(out, t.Value(int(r), x.ValCol))
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
		rows := achieved.AppendRows(ex.ar.rows.get(achieved.Count()))
		v.Cells = ex.span(rows, x.ValCol)
	}
	return v, nil
}

// ---- scalar operators ----

func (ex *executor) aggregate(x *Aggregate) (*val, error) {
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

func (ex *executor) arith(x *Arith) (*val, error) {
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
		v.Cells = ex.combine(l.Cells, r.Cells, false)
	}
	return v, nil
}

func arithOperand(x *Arith, v *val, side string) (float64, error) {
	if len(v.Values) != 1 {
		return 0, errorf(x.Src, "%s operand of sub must be a single value, got %d", side, len(v.Values))
	}
	f, ok := v.Values[0].Float()
	if !ok {
		return 0, errorf(x.Src, "%s operand of sub is not numeric: %q", side, v.Values[0])
	}
	return f, nil
}
