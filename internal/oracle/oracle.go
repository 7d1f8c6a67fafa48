// Package oracle is the reference semantics of lambda DCS: the
// tree-walking interpreter the paper's definitions were first written
// down as, one function per operator, record sets as maps, no index, no
// morsel, no rewrite. Nothing that ships runs it — only _test.go files
// import this package (`make vet` fails when a command, an example or
// the library links it) — and everything that ships is judged against
// it: the differential suites and FuzzPlanDifferential require the plan
// path (dcs.Execute) to return its denotations, its witness cells and
// its errors, word for word, and BenchmarkInterpExec keeps the cost of
// the two side by side.
package oracle

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"nlexplain/internal/dcs"
	"nlexplain/internal/table"
)

// Execute checks e against t and evaluates it by walking the tree.
func Execute(e dcs.Expr, t *table.Table) (*dcs.Result, error) {
	if err := dcs.Check(e, t); err != nil {
		return nil, err
	}
	return exec(e, t)
}

func execErr(e dcs.Expr, format string, args ...any) error {
	return &dcs.ExecError{Expr: e, Msg: fmt.Sprintf(format, args...)}
}

func sortedRecords(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// distinct sorts cells by order and drops the repeats, in place.
func distinct(cells []table.CellRef, order func(a, b table.CellRef) int) []table.CellRef {
	slices.SortFunc(cells, order)
	return slices.Compact(cells)
}

func rowMajor(a, b table.CellRef) int { return cmp.Or(a.Row-b.Row, a.Col-b.Col) }

func columnMajor(a, b table.CellRef) int { return cmp.Or(a.Col-b.Col, a.Row-b.Row) }

// level holds cells, in any order and with repeats, as a Result
// carries them: by column, each column's rows ascending and distinct.
func level(t *table.Table, cells []table.CellRef) table.Level {
	var spans []table.Span
	for i, c := range distinct(cells, columnMajor) {
		if i == 0 || c.Col != spans[len(spans)-1].Col {
			spans = append(spans, table.Span{Col: c.Col})
		}
		sp := &spans[len(spans)-1]
		sp.Rows = append(sp.Rows, int32(c.Row))
	}
	return table.NewLevel(t.NumRows(), spans)
}

func exec(e dcs.Expr, t *table.Table) (*dcs.Result, error) {
	switch x := e.(type) {
	case *dcs.ValueLit:
		return &dcs.Result{Type: dcs.ValuesType, Values: []table.Value{x.V}}, nil

	case *dcs.AllRecords:
		return &dcs.Result{Type: dcs.RecordsType, Records: t.Records()}, nil

	case *dcs.Join:
		return execJoin(x, t)

	case *dcs.ColumnValues:
		return execColumnValues(x, t)

	case *dcs.Prev:
		return execShift(x.Records, t, -1)

	case *dcs.Next:
		return execShift(x.Records, t, +1)

	case *dcs.Intersect:
		return execIntersect(x, t)

	case *dcs.Union:
		return execUnion(x, t)

	case *dcs.Aggregate:
		return execAggregate(x, t)

	case *dcs.Sub:
		return execSub(x, t)

	case *dcs.ArgRecords:
		return execArgRecords(x, t)

	case *dcs.IndexSuperlative:
		return execIndexSuperlative(x, t)

	case *dcs.MostFrequent:
		return execMostFrequent(x, t)

	case *dcs.CompareValues:
		return execCompareValues(x, t)

	case *dcs.Compare:
		return execCompare(x, t)
	}
	return nil, execErr(e, "unknown expression type %T", e)
}

func execJoin(x *dcs.Join, t *table.Table) (*dcs.Result, error) {
	arg, err := exec(x.Arg, t)
	if err != nil {
		return nil, err
	}
	col, _ := t.ColumnIndex(x.Column)
	recs := make(map[int]bool)
	var cells []table.CellRef
	for _, v := range arg.Values {
		for _, r := range recordsWhere(t, col, v) {
			recs[r] = true
			cells = append(cells, table.CellRef{Row: r, Col: col})
		}
	}
	return &dcs.Result{Type: dcs.RecordsType, Records: sortedRecords(recs), Cells: level(t, cells)}, nil
}

// recordsWhere returns, in table order, the records whose value in col
// has v's canonical key (Value.Key): the join C.v. It reads every cell
// instead of the table's key index, so the reference shares no lookup
// code with the plan path it is held against.
func recordsWhere(t *table.Table, col int, v table.Value) []int {
	key := v.Key()
	var out []int
	for r := 0; r < t.NumRows(); r++ {
		if t.Value(r, col).Key() == key {
			out = append(out, r)
		}
	}
	return out
}

func execColumnValues(x *dcs.ColumnValues, t *table.Table) (*dcs.Result, error) {
	recs, err := exec(x.Records, t)
	if err != nil {
		return nil, err
	}
	col, _ := t.ColumnIndex(x.Column)
	var vals []table.Value
	var cells []table.CellRef
	for _, r := range recs.Records {
		vals = append(vals, t.Value(r, col))
		cells = append(cells, table.CellRef{Row: r, Col: col})
	}
	return &dcs.Result{Type: dcs.ValuesType, Values: table.DedupValues(vals), Cells: level(t, cells)}, nil
}

func execShift(arg dcs.Expr, t *table.Table, delta int) (*dcs.Result, error) {
	recs, err := exec(arg, t)
	if err != nil {
		return nil, err
	}
	out := make(map[int]bool)
	for _, r := range recs.Records {
		if s := r + delta; s >= 0 && s < t.NumRows() {
			out[s] = true
		}
	}
	// The witness cells of a pure record shift are inherited from the
	// argument: the shift itself touches no new cells.
	return &dcs.Result{Type: dcs.RecordsType, Records: sortedRecords(out), Cells: recs.Cells}, nil
}

func execIntersect(x *dcs.Intersect, t *table.Table) (*dcs.Result, error) {
	l, err := exec(x.L, t)
	if err != nil {
		return nil, err
	}
	r, err := exec(x.R, t)
	if err != nil {
		return nil, err
	}
	inR := make(map[int]bool, len(r.Records))
	for _, rec := range r.Records {
		inR[rec] = true
	}
	var out []int
	for _, rec := range l.Records {
		if inR[rec] {
			out = append(out, rec)
		}
	}
	// Table 10: PO(records1 ⊓ records2) = PO(records1) ∩ PO(records2).
	var cells []table.CellRef
	for c := range r.Cells.All() {
		if l.Cells.Contains(c) {
			cells = append(cells, c)
		}
	}
	return &dcs.Result{Type: dcs.RecordsType, Records: out, Cells: level(t, cells)}, nil
}

func execUnion(x *dcs.Union, t *table.Table) (*dcs.Result, error) {
	l, err := exec(x.L, t)
	if err != nil {
		return nil, err
	}
	r, err := exec(x.R, t)
	if err != nil {
		return nil, err
	}
	cells := level(t, slices.AppendSeq(slices.Collect(l.Cells.All()), r.Cells.All()))
	if l.Type == dcs.RecordsType {
		set := make(map[int]bool)
		for _, rec := range l.Records {
			set[rec] = true
		}
		for _, rec := range r.Records {
			set[rec] = true
		}
		return &dcs.Result{Type: dcs.RecordsType, Records: sortedRecords(set), Cells: cells}, nil
	}
	vals := table.DedupValues(append(append([]table.Value(nil), l.Values...), r.Values...))
	return &dcs.Result{Type: dcs.ValuesType, Values: vals, Cells: cells}, nil
}

func execAggregate(x *dcs.Aggregate, t *table.Table) (*dcs.Result, error) {
	arg, err := exec(x.Arg, t)
	if err != nil {
		return nil, err
	}
	if x.Fn == dcs.Count {
		n := len(arg.Values)
		if arg.Type == dcs.RecordsType {
			n = len(arg.Records)
		}
		return &dcs.Result{
			Type:   dcs.ScalarType,
			Values: []table.Value{table.NumberValue(float64(n))},
			Cells:  arg.Cells,
			Aggr:   dcs.Count,
		}, nil
	}
	if arg.Empty() {
		return nil, execErr(x, "%s over an empty set", x.Fn)
	}
	var nums []float64
	var extreme table.Value
	for i, v := range arg.Values {
		f, ok := v.Float()
		if !ok {
			return nil, execErr(x, "%s over non-numeric value %q", x.Fn, v)
		}
		nums = append(nums, f)
		switch x.Fn {
		case dcs.Min:
			if i == 0 || v.Compare(extreme) < 0 {
				extreme = v
			}
		case dcs.Max:
			if i == 0 || v.Compare(extreme) > 0 {
				extreme = v
			}
		}
	}
	var out table.Value
	switch x.Fn {
	case dcs.Min, dcs.Max:
		out = extreme
	case dcs.Sum:
		s := 0.0
		for _, n := range nums {
			s += n
		}
		out = table.NumberValue(s)
	case dcs.Avg:
		s := 0.0
		for _, n := range nums {
			s += n
		}
		out = table.NumberValue(s / float64(len(nums)))
	}
	return &dcs.Result{Type: dcs.ScalarType, Values: []table.Value{out}, Cells: arg.Cells, Aggr: x.Fn}, nil
}

func execSub(x *dcs.Sub, t *table.Table) (*dcs.Result, error) {
	l, err := exec(x.L, t)
	if err != nil {
		return nil, err
	}
	r, err := exec(x.R, t)
	if err != nil {
		return nil, err
	}
	lf, err := subOperand(x, l, "left")
	if err != nil {
		return nil, err
	}
	rf, err := subOperand(x, r, "right")
	if err != nil {
		return nil, err
	}
	cells := level(t, slices.AppendSeq(slices.Collect(l.Cells.All()), r.Cells.All()))
	return &dcs.Result{
		Type:   dcs.ScalarType,
		Values: []table.Value{table.NumberValue(lf - rf)},
		Cells:  cells,
	}, nil
}

func subOperand(x *dcs.Sub, r *dcs.Result, side string) (float64, error) {
	if len(r.Values) != 1 {
		return 0, execErr(x, "%s operand of sub must be a single value, got %d", side, len(r.Values))
	}
	f, ok := r.Values[0].Float()
	if !ok {
		return 0, execErr(x, "%s operand of sub is not numeric: %q", side, r.Values[0])
	}
	return f, nil
}

func execArgRecords(x *dcs.ArgRecords, t *table.Table) (*dcs.Result, error) {
	recs, err := exec(x.Records, t)
	if err != nil {
		return nil, err
	}
	if len(recs.Records) == 0 {
		return &dcs.Result{Type: dcs.RecordsType}, nil
	}
	col, _ := t.ColumnIndex(x.Column)
	best := t.Value(recs.Records[0], col)
	for _, r := range recs.Records[1:] {
		v := t.Value(r, col)
		if (x.Max && v.Compare(best) > 0) || (!x.Max && v.Compare(best) < 0) {
			best = v
		}
	}
	var out []int
	var cells []table.CellRef
	for _, r := range recs.Records {
		if t.Value(r, col).Compare(best) == 0 {
			out = append(out, r)
			cells = append(cells, table.CellRef{Row: r, Col: col})
		}
	}
	return &dcs.Result{Type: dcs.RecordsType, Records: out, Cells: level(t, cells)}, nil
}

func execIndexSuperlative(x *dcs.IndexSuperlative, t *table.Table) (*dcs.Result, error) {
	recs, err := exec(x.Records, t)
	if err != nil {
		return nil, err
	}
	if len(recs.Records) == 0 {
		return &dcs.Result{Type: dcs.ValuesType}, nil
	}
	r := recs.Records[len(recs.Records)-1]
	if x.First {
		r = recs.Records[0]
	}
	col, _ := t.ColumnIndex(x.Column)
	return &dcs.Result{
		Type:   dcs.ValuesType,
		Values: []table.Value{t.Value(r, col)},
		Cells:  level(t, []table.CellRef{{Row: r, Col: col}}),
	}, nil
}

func execMostFrequent(x *dcs.MostFrequent, t *table.Table) (*dcs.Result, error) {
	col, _ := t.ColumnIndex(x.Column)
	var candidates []table.Value
	if x.Vals == nil {
		candidates = t.DistinctColumnValues(col)
	} else {
		vals, err := exec(x.Vals, t)
		if err != nil {
			return nil, err
		}
		candidates = vals.Values
	}
	if len(candidates) == 0 {
		return &dcs.Result{Type: dcs.ValuesType}, nil
	}
	// Ties break towards the value appearing earliest in the table,
	// matching the SQL translation's GROUP BY (groups form in row order)
	// with a stable ORDER BY COUNT(Index) DESC LIMIT 1 (Table 10).
	bestCount := 0
	bestFirst := 0
	var winner table.Value
	for _, v := range candidates {
		occ := recordsWhere(t, col, v)
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
		return &dcs.Result{Type: dcs.ValuesType}, nil
	}
	var cells []table.CellRef
	for _, r := range recordsWhere(t, col, winner) {
		cells = append(cells, table.CellRef{Row: r, Col: col})
	}
	return &dcs.Result{Type: dcs.ValuesType, Values: []table.Value{winner}, Cells: level(t, cells)}, nil
}

func execCompareValues(x *dcs.CompareValues, t *table.Table) (*dcs.Result, error) {
	vals, err := exec(x.Vals, t)
	if err != nil {
		return nil, err
	}
	keyCol, _ := t.ColumnIndex(x.KeyCol)
	valCol, _ := t.ColumnIndex(x.ValCol)
	// SQL semantics (Table 10, Comparing Values): the extreme key value
	// over all records whose ValCol value is a candidate, then the
	// DISTINCT ValCol values of records achieving that key.
	type rec struct {
		row int
		key table.Value
	}
	var pool []rec
	for _, v := range vals.Values {
		for _, r := range recordsWhere(t, valCol, v) {
			pool = append(pool, rec{row: r, key: t.Value(r, keyCol)})
		}
	}
	if len(pool) == 0 {
		return &dcs.Result{Type: dcs.ValuesType}, nil
	}
	best := pool[0].key
	for _, p := range pool[1:] {
		if (x.Max && p.key.Compare(best) > 0) || (!x.Max && p.key.Compare(best) < 0) {
			best = p.key
		}
	}
	var out []table.Value
	var cells []table.CellRef
	for _, p := range pool {
		if p.key.Compare(best) == 0 {
			out = append(out, t.Value(p.row, valCol))
			cells = append(cells, table.CellRef{Row: p.row, Col: valCol})
		}
	}
	return &dcs.Result{Type: dcs.ValuesType, Values: table.DedupValues(out), Cells: level(t, cells)}, nil
}

func execCompare(x *dcs.Compare, t *table.Table) (*dcs.Result, error) {
	col, _ := t.ColumnIndex(x.Column)
	var recs []int
	var cells []table.CellRef
	for r := 0; r < t.NumRows(); r++ {
		v := t.Value(r, col)
		cmp := v.Compare(x.V)
		ok := false
		switch x.Op {
		case dcs.Lt:
			ok = cmp < 0
		case dcs.Le:
			ok = cmp <= 0
		case dcs.Gt:
			ok = cmp > 0
		case dcs.Ge:
			ok = cmp >= 0
		case dcs.Ne:
			ok = !v.Equal(x.V)
		}
		// Comparisons other than != only apply between comparable kinds:
		// a text cell is never "more than 4".
		if x.Op != dcs.Ne && (!v.IsNumeric() || !x.V.IsNumeric()) {
			ok = false
		}
		if ok {
			recs = append(recs, r)
			cells = append(cells, table.CellRef{Row: r, Col: col})
		}
	}
	return &dcs.Result{Type: dcs.RecordsType, Records: recs, Cells: level(t, cells)}, nil
}
