package dcs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"nlexplain/internal/plan"
	"nlexplain/internal/table"
)

// Result is the denotation of a lambda DCS expression on a table: a set
// of record indices, a set of values, or one scalar. Alongside the
// denotation it carries the witness cells — the cells "output by Q(T)
// or used to compute the final output" (the PO provenance primitive of
// Definition 4.1) — and the aggregate function, when one produced the
// scalar.
type Result struct {
	Type    Type
	Records []int           // sorted record indices (RecordsType)
	Values  []table.Value   // distinct values (ValuesType), or the single scalar (ScalarType)
	Cells   []table.CellRef // output/witness cells, sorted row-major
	Aggr    AggrFn          // non-empty when a scalar came from an aggregation
}

// Empty reports whether the denotation is the empty set.
func (r *Result) Empty() bool {
	switch r.Type {
	case RecordsType:
		return len(r.Records) == 0
	default:
		return len(r.Values) == 0
	}
}

// Scalar returns the numeric value of a ScalarType result.
func (r *Result) Scalar() (float64, bool) {
	if r.Type != ScalarType || len(r.Values) == 0 {
		return 0, false
	}
	return r.Values[0].Float()
}

// AnswerKey returns a canonical, order-independent rendering of the
// denotation, used to compare a query's result with a gold answer
// (the r(z|T,y) indicator of Eq. 5).
func (r *Result) AnswerKey() string {
	var parts []string
	switch r.Type {
	case RecordsType:
		parts = make([]string, 0, len(r.Records))
		for _, rec := range r.Records {
			parts = append(parts, "#"+strconv.Itoa(rec))
		}
	default:
		parts = make([]string, 0, len(r.Values))
		for _, v := range r.Values {
			parts = append(parts, v.Key())
		}
	}
	sort.Strings(parts)
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(p)
	}
	return b.String()
}

// String renders the denotation compactly.
func (r *Result) String() string {
	switch r.Type {
	case RecordsType:
		return fmt.Sprintf("records%v", r.Records)
	case ScalarType:
		if len(r.Values) == 0 {
			return "scalar{}"
		}
		return r.Values[0].String()
	default:
		var b strings.Builder
		b.WriteByte('{')
		for i, v := range r.Values {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(v.String())
		}
		b.WriteByte('}')
		return b.String()
	}
}

// ExecError is a dynamic execution error (e.g. aggregating text).
type ExecError struct {
	Expr Expr
	Msg  string
}

// Error implements the error interface.
func (e *ExecError) Error() string {
	return fmt.Sprintf("executing %s: %s", e.Expr, e.Msg)
}

func execErr(e Expr, format string, args ...any) error {
	return &ExecError{Expr: e, Msg: fmt.Sprintf(format, args...)}
}

// Execute evaluates a checked expression against a table by compiling
// it into the shared relational plan IR (internal/plan) and running
// the vectorized executor with witness-cell capture on, so the Result
// carries the PO cells the provenance model needs. The expression is
// re-checked first, so Execute is safe to call on untrusted input.
func Execute(e Expr, t *table.Table) (*Result, error) {
	c, err := Compile(e, t)
	if err != nil {
		return nil, err
	}
	return c.ExecuteWith(t, plan.Capture{})
}

// ExecuteAnswer is the answer-only fast path: the compiled plan runs
// under an inactive tracer, skipping every witness-cell computation.
// The Result's denotation (Records/Values/AnswerKey) is identical to
// Execute's but Cells is always nil. Use it where only the answer
// matters — candidate generation, gold-answer comparison (Eq. 5) and
// batch serving.
func ExecuteAnswer(e Expr, t *table.Table) (*Result, error) {
	c, err := Compile(e, t)
	if err != nil {
		return nil, err
	}
	return c.ExecuteWith(t, plan.Noop{})
}

// ExecuteInterpreted evaluates the expression with the legacy
// tree-walking interpreter, retained as the reference semantics for
// differential tests and benchmarks against the plan path.
func ExecuteInterpreted(e Expr, t *table.Table) (*Result, error) {
	if err := Check(e, t); err != nil {
		return nil, err
	}
	return exec(e, t)
}

func sortedRecords(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

func exec(e Expr, t *table.Table) (*Result, error) {
	switch x := e.(type) {
	case *ValueLit:
		return &Result{Type: ValuesType, Values: []table.Value{x.V}}, nil

	case *AllRecords:
		return &Result{Type: RecordsType, Records: t.Records()}, nil

	case *Join:
		return execJoin(x, t)

	case *ColumnValues:
		return execColumnValues(x, t)

	case *Prev:
		return execShift(x.Records, t, -1)

	case *Next:
		return execShift(x.Records, t, +1)

	case *Intersect:
		return execIntersect(x, t)

	case *Union:
		return execUnion(x, t)

	case *Aggregate:
		return execAggregate(x, t)

	case *Sub:
		return execSub(x, t)

	case *ArgRecords:
		return execArgRecords(x, t)

	case *IndexSuperlative:
		return execIndexSuperlative(x, t)

	case *MostFrequent:
		return execMostFrequent(x, t)

	case *CompareValues:
		return execCompareValues(x, t)

	case *Compare:
		return execCompare(x, t)
	}
	return nil, execErr(e, "unknown expression type %T", e)
}

func execJoin(x *Join, t *table.Table) (*Result, error) {
	arg, err := exec(x.Arg, t)
	if err != nil {
		return nil, err
	}
	col, _ := t.ColumnIndex(x.Column)
	recs := make(map[int]bool)
	var cells []table.CellRef
	for _, v := range arg.Values {
		for _, r := range t.RecordsWhere(col, v) {
			recs[r] = true
			cells = append(cells, table.CellRef{Row: r, Col: col})
		}
	}
	return &Result{Type: RecordsType, Records: sortedRecords(recs), Cells: table.DedupCells(cells)}, nil
}

func execColumnValues(x *ColumnValues, t *table.Table) (*Result, error) {
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
	return &Result{Type: ValuesType, Values: table.DedupValues(vals), Cells: table.DedupCells(cells)}, nil
}

func execShift(arg Expr, t *table.Table, delta int) (*Result, error) {
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
	return &Result{Type: RecordsType, Records: sortedRecords(out), Cells: recs.Cells}, nil
}

func execIntersect(x *Intersect, t *table.Table) (*Result, error) {
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
	lset := table.CellSet(l.Cells)
	var cells []table.CellRef
	for _, c := range r.Cells {
		if lset.Contains(c) {
			cells = append(cells, c)
		}
	}
	return &Result{Type: RecordsType, Records: out, Cells: table.DedupCells(cells)}, nil
}

func execUnion(x *Union, t *table.Table) (*Result, error) {
	l, err := exec(x.L, t)
	if err != nil {
		return nil, err
	}
	r, err := exec(x.R, t)
	if err != nil {
		return nil, err
	}
	cells := table.DedupCells(append(append([]table.CellRef(nil), l.Cells...), r.Cells...))
	if l.Type == RecordsType {
		set := make(map[int]bool)
		for _, rec := range l.Records {
			set[rec] = true
		}
		for _, rec := range r.Records {
			set[rec] = true
		}
		return &Result{Type: RecordsType, Records: sortedRecords(set), Cells: cells}, nil
	}
	vals := table.DedupValues(append(append([]table.Value(nil), l.Values...), r.Values...))
	return &Result{Type: ValuesType, Values: vals, Cells: cells}, nil
}

func execAggregate(x *Aggregate, t *table.Table) (*Result, error) {
	arg, err := exec(x.Arg, t)
	if err != nil {
		return nil, err
	}
	if x.Fn == Count {
		n := len(arg.Values)
		if arg.Type == RecordsType {
			n = len(arg.Records)
		}
		return &Result{
			Type:   ScalarType,
			Values: []table.Value{table.NumberValue(float64(n))},
			Cells:  arg.Cells,
			Aggr:   Count,
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
		case Min:
			if i == 0 || v.Compare(extreme) < 0 {
				extreme = v
			}
		case Max:
			if i == 0 || v.Compare(extreme) > 0 {
				extreme = v
			}
		}
	}
	var out table.Value
	switch x.Fn {
	case Min, Max:
		out = extreme
	case Sum:
		s := 0.0
		for _, n := range nums {
			s += n
		}
		out = table.NumberValue(s)
	case Avg:
		s := 0.0
		for _, n := range nums {
			s += n
		}
		out = table.NumberValue(s / float64(len(nums)))
	}
	return &Result{Type: ScalarType, Values: []table.Value{out}, Cells: arg.Cells, Aggr: x.Fn}, nil
}

func execSub(x *Sub, t *table.Table) (*Result, error) {
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
	cells := table.DedupCells(append(append([]table.CellRef(nil), l.Cells...), r.Cells...))
	return &Result{
		Type:   ScalarType,
		Values: []table.Value{table.NumberValue(lf - rf)},
		Cells:  cells,
	}, nil
}

func subOperand(x *Sub, r *Result, side string) (float64, error) {
	if len(r.Values) != 1 {
		return 0, execErr(x, "%s operand of sub must be a single value, got %d", side, len(r.Values))
	}
	f, ok := r.Values[0].Float()
	if !ok {
		return 0, execErr(x, "%s operand of sub is not numeric: %q", side, r.Values[0])
	}
	return f, nil
}

func execArgRecords(x *ArgRecords, t *table.Table) (*Result, error) {
	recs, err := exec(x.Records, t)
	if err != nil {
		return nil, err
	}
	if len(recs.Records) == 0 {
		return &Result{Type: RecordsType}, nil
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
	return &Result{Type: RecordsType, Records: out, Cells: table.DedupCells(cells)}, nil
}

func execIndexSuperlative(x *IndexSuperlative, t *table.Table) (*Result, error) {
	recs, err := exec(x.Records, t)
	if err != nil {
		return nil, err
	}
	if len(recs.Records) == 0 {
		return &Result{Type: ValuesType}, nil
	}
	r := recs.Records[len(recs.Records)-1]
	if x.First {
		r = recs.Records[0]
	}
	col, _ := t.ColumnIndex(x.Column)
	cell := table.CellRef{Row: r, Col: col}
	return &Result{
		Type:   ValuesType,
		Values: []table.Value{t.Value(r, col)},
		Cells:  []table.CellRef{cell},
	}, nil
}

func execMostFrequent(x *MostFrequent, t *table.Table) (*Result, error) {
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
		return &Result{Type: ValuesType}, nil
	}
	// Ties break towards the value appearing earliest in the table,
	// matching the SQL translation's GROUP BY (groups form in row order)
	// with a stable ORDER BY COUNT(Index) DESC LIMIT 1 (Table 10).
	bestCount := 0
	bestFirst := 0
	var winner table.Value
	for _, v := range candidates {
		occ := t.RecordsWhere(col, v)
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
		return &Result{Type: ValuesType}, nil
	}
	var cells []table.CellRef
	for _, r := range t.RecordsWhere(col, winner) {
		cells = append(cells, table.CellRef{Row: r, Col: col})
	}
	return &Result{Type: ValuesType, Values: []table.Value{winner}, Cells: table.DedupCells(cells)}, nil
}

func execCompareValues(x *CompareValues, t *table.Table) (*Result, error) {
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
		for _, r := range t.RecordsWhere(valCol, v) {
			pool = append(pool, rec{row: r, key: t.Value(r, keyCol)})
		}
	}
	if len(pool) == 0 {
		return &Result{Type: ValuesType}, nil
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
	return &Result{Type: ValuesType, Values: table.DedupValues(out), Cells: table.DedupCells(cells)}, nil
}

func execCompare(x *Compare, t *table.Table) (*Result, error) {
	col, _ := t.ColumnIndex(x.Column)
	var recs []int
	var cells []table.CellRef
	for r := 0; r < t.NumRows(); r++ {
		v := t.Value(r, col)
		cmp := v.Compare(x.V)
		ok := false
		switch x.Op {
		case Lt:
			ok = cmp < 0
		case Le:
			ok = cmp <= 0
		case Gt:
			ok = cmp > 0
		case Ge:
			ok = cmp >= 0
		case Ne:
			ok = !v.Equal(x.V)
		}
		// Comparisons other than != only apply between comparable kinds:
		// a text cell is never "more than 4".
		if x.Op != Ne && (!v.IsNumeric() || !x.V.IsNumeric()) {
			ok = false
		}
		if ok {
			recs = append(recs, r)
			cells = append(cells, table.CellRef{Row: r, Col: col})
		}
	}
	return &Result{Type: RecordsType, Records: recs, Cells: cells}, nil
}
