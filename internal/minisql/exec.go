package minisql

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"nlexplain/internal/sqlast"
	"nlexplain/internal/table"
)

// errEmptyAggregate marks MIN/MAX/SUM/AVG applied to an empty set.
// Real SQL yields NULL there; this engine has no NULL, so predicates
// catch the sentinel and evaluate to false (the observable behaviour of
// NULL comparisons), while top-level aggregates surface the error.
var errEmptyAggregate = errors.New("aggregate over an empty set")

// Rows is a query result: column labels, data rows, and the source
// record index of each output row.
type Rows struct {
	Cols []string
	Data [][]table.Value
	// Src holds, per output row, the base-table record the row was
	// projected from, or the computed-row sentinel -1 for rows that do
	// not correspond to any single source record (aggregate outputs and
	// scalar differences). Mixed results — e.g. a UNION of a plain
	// selection with an aggregate — carry both kinds side by side.
	Src []int
}

// FirstColumn returns the values of the first output column.
func (r *Rows) FirstColumn() []table.Value {
	out := make([]table.Value, len(r.Data))
	for i, row := range r.Data {
		out[i] = row[0]
	}
	return out
}

// SourceRows returns the sorted distinct source record indices of the
// result, ignoring rows marked with the -1 computed-row sentinel.
func (r *Rows) SourceRows() []int {
	seen := make(map[int]bool, len(r.Src))
	out := make([]int, 0, len(r.Src))
	for _, s := range r.Src {
		if s >= 0 && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

func (r *Rows) key(i int) string {
	var b strings.Builder
	for j, v := range r.Data[i] {
		if j > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(v.Key())
	}
	return b.String()
}

// Exec evaluates a query against a table by walking it: WHERE row by
// row, then projection or grouping with ORDER BY, then DISTINCT and
// LIMIT, each subquery run once per execution. It is mini-SQL's only
// executor: the system runs SQL only to check Table 10's translations
// (the experiments harness and the sqlgen tests), and explanations
// carry the SQL as text. The FROM clause may name the table or use any
// placeholder (the paper writes FROM T throughout).
func Exec(q sqlast.Query, t *table.Table) (*Rows, error) {
	e := &evaluator{t: t, memo: make(map[sqlast.Query]*Rows)}
	return e.query(q)
}

// Run parses and executes src against t.
func Run(src string, t *table.Table) (*Rows, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Exec(q, t)
}

type evaluator struct {
	t    *table.Table
	memo map[sqlast.Query]*Rows
}

func (e *evaluator) query(q sqlast.Query) (*Rows, error) {
	if r, ok := e.memo[q]; ok {
		return r, nil
	}
	var r *Rows
	var err error
	switch x := q.(type) {
	case *sqlast.Select:
		r, err = e.selectQuery(x)
	case *sqlast.UnionQuery:
		r, err = e.unionQuery(x)
	case *sqlast.DiffQuery:
		r, err = e.diffQuery(x)
	default:
		err = fmt.Errorf("sql exec: unknown query type %T", q)
	}
	if err != nil {
		return nil, err
	}
	e.memo[q] = r
	return r, nil
}

func (e *evaluator) unionQuery(q *sqlast.UnionQuery) (*Rows, error) {
	l, err := e.query(q.L)
	if err != nil {
		return nil, err
	}
	r, err := e.query(q.R)
	if err != nil {
		return nil, err
	}
	if len(l.Cols) != len(r.Cols) {
		return nil, fmt.Errorf("sql exec: UNION of incompatible widths %d and %d", len(l.Cols), len(r.Cols))
	}
	out := &Rows{Cols: l.Cols}
	seen := make(map[string]bool)
	appendRows := func(src *Rows) {
		for i := range src.Data {
			k := src.key(i)
			if seen[k] {
				continue
			}
			seen[k] = true
			out.Data = append(out.Data, src.Data[i])
			out.Src = append(out.Src, src.Src[i])
		}
	}
	appendRows(l)
	appendRows(r)
	return out, nil
}

func (e *evaluator) diffQuery(q *sqlast.DiffQuery) (*Rows, error) {
	l, err := e.scalar(q.L)
	if err != nil {
		return nil, err
	}
	r, err := e.scalar(q.R)
	if err != nil {
		return nil, err
	}
	lf, lok := l.Float()
	rf, rok := r.Float()
	if !lok || !rok {
		return nil, fmt.Errorf("sql exec: difference of non-numeric values %q and %q", l, r)
	}
	return &Rows{
		Cols: []string{"diff"},
		Data: [][]table.Value{{table.NumberValue(lf - rf)}},
		Src:  []int{-1},
	}, nil
}

// scalar executes a query that must produce exactly one row and column.
func (e *evaluator) scalar(q sqlast.Query) (table.Value, error) {
	r, err := e.query(q)
	if err != nil {
		return table.Value{}, err
	}
	if len(r.Data) != 1 || len(r.Data[0]) != 1 {
		return table.Value{}, fmt.Errorf("sql exec: scalar subquery returned %dx%d result", len(r.Data), len(r.Cols))
	}
	return r.Data[0][0], nil
}

func (e *evaluator) selectQuery(s *sqlast.Select) (*Rows, error) {
	// Filter.
	var rows []int
	for i := 0; i < e.t.NumRows(); i++ {
		if s.Where == nil {
			rows = append(rows, i)
			continue
		}
		ok, err := e.evalBool(s.Where, i)
		if err != nil {
			return nil, err
		}
		if ok {
			rows = append(rows, i)
		}
	}

	aggregated := s.GroupBy != "" || itemsHaveAggr(s.Items) || hasAggr(s.OrderBy)
	var out *Rows
	var err error
	if aggregated {
		out, err = e.aggregate(s, rows)
	} else {
		out, err = e.project(s, rows)
	}
	if err != nil {
		return nil, err
	}

	if s.Distinct {
		seen := make(map[string]bool)
		d := &Rows{Cols: out.Cols}
		for i := range out.Data {
			k := out.key(i)
			if seen[k] {
				continue
			}
			seen[k] = true
			d.Data = append(d.Data, out.Data[i])
			d.Src = append(d.Src, out.Src[i])
		}
		out = d
	}
	if s.Limit >= 0 && len(out.Data) > s.Limit {
		out.Data = out.Data[:s.Limit]
		out.Src = out.Src[:s.Limit]
	}
	return out, nil
}

func (e *evaluator) project(s *sqlast.Select, rows []int) (*Rows, error) {
	out := &Rows{}
	for _, it := range s.Items {
		if it.Star {
			out.Cols = append(out.Cols, e.t.Columns()...)
		} else {
			out.Cols = append(out.Cols, sqlast.FormatExpr(it.Expr))
		}
	}
	type keyed struct {
		row  []table.Value
		src  int
		sort table.Value
	}
	var result []keyed
	for _, r := range rows {
		var vals []table.Value
		for _, it := range s.Items {
			if it.Star {
				for c := 0; c < e.t.NumCols(); c++ {
					vals = append(vals, e.t.Value(r, c))
				}
				continue
			}
			v, err := e.evalExpr(it.Expr, r)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
		k := keyed{row: vals, src: r}
		if s.OrderBy != nil {
			v, err := e.evalExpr(s.OrderBy, r)
			if err != nil {
				return nil, err
			}
			k.sort = v
		}
		result = append(result, k)
	}
	if s.OrderBy != nil {
		sort.SliceStable(result, func(i, j int) bool {
			c := result[i].sort.Compare(result[j].sort)
			if s.Desc {
				return c > 0
			}
			return c < 0
		})
	}
	for _, k := range result {
		out.Data = append(out.Data, k.row)
		out.Src = append(out.Src, k.src)
	}
	return out, nil
}

func (e *evaluator) aggregate(s *sqlast.Select, rows []int) (*Rows, error) {
	// Build groups preserving first-appearance order.
	type group struct{ rows []int }
	var order []string
	groups := make(map[string]*group)
	if s.GroupBy == "" {
		groups[""] = &group{rows: rows}
		order = []string{""}
	} else {
		col, ok := e.t.ColumnIndex(s.GroupBy)
		if !ok {
			return nil, fmt.Errorf("sql exec: unknown GROUP BY column %q", s.GroupBy)
		}
		for _, r := range rows {
			k := e.t.Value(r, col).Key()
			g, ok := groups[k]
			if !ok {
				g = &group{}
				groups[k] = g
				order = append(order, k)
			}
			g.rows = append(g.rows, r)
		}
	}

	out := &Rows{}
	for _, it := range s.Items {
		if it.Star {
			return nil, fmt.Errorf("sql exec: SELECT * is not allowed in an aggregate query")
		}
		out.Cols = append(out.Cols, sqlast.FormatExpr(it.Expr))
	}
	type keyed struct {
		row  []table.Value
		sort table.Value
	}
	var result []keyed
	for _, k := range order {
		g := groups[k]
		var vals []table.Value
		for _, it := range s.Items {
			v, err := e.evalGroupExpr(it.Expr, g.rows)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
		kk := keyed{row: vals}
		if s.OrderBy != nil {
			v, err := e.evalGroupExpr(s.OrderBy, g.rows)
			if err != nil {
				return nil, err
			}
			kk.sort = v
		}
		result = append(result, kk)
	}
	if s.OrderBy != nil {
		sort.SliceStable(result, func(i, j int) bool {
			c := result[i].sort.Compare(result[j].sort)
			if s.Desc {
				return c > 0
			}
			return c < 0
		})
	}
	for _, kk := range result {
		out.Data = append(out.Data, kk.row)
		out.Src = append(out.Src, -1)
	}
	return out, nil
}

// evalExpr evaluates an expression in the context of one source row.
func (e *evaluator) evalExpr(x sqlast.Expr, row int) (table.Value, error) {
	switch v := x.(type) {
	case *sqlast.Lit:
		return v.V, nil
	case *sqlast.ColRef:
		return e.colValue(v.Name, row)
	case *sqlast.BinOp:
		switch v.Op {
		case "+", "-":
			l, err := e.evalExpr(v.L, row)
			if err != nil {
				return table.Value{}, err
			}
			r, err := e.evalExpr(v.R, row)
			if err != nil {
				return table.Value{}, err
			}
			lf, lok := l.Float()
			rf, rok := r.Float()
			if !lok || !rok {
				return table.Value{}, fmt.Errorf("sql exec: arithmetic on non-numeric values %q, %q", l, r)
			}
			if v.Op == "+" {
				return table.NumberValue(lf + rf), nil
			}
			return table.NumberValue(lf - rf), nil
		default:
			ok, err := e.evalBool(x, row)
			if err != nil {
				return table.Value{}, err
			}
			if ok {
				return table.NumberValue(1), nil
			}
			return table.NumberValue(0), nil
		}
	case *sqlast.ScalarSubq:
		return e.scalar(v.Q)
	case *sqlast.AggrCall:
		return table.Value{}, fmt.Errorf("sql exec: aggregate %s outside an aggregate query", v.Fn)
	default:
		return table.Value{}, fmt.Errorf("sql exec: cannot evaluate %T as a row expression", x)
	}
}

func (e *evaluator) colValue(name string, row int) (table.Value, error) {
	if strings.EqualFold(name, "Index") {
		return table.NumberValue(float64(row)), nil
	}
	col, ok := e.t.ColumnIndex(name)
	if !ok {
		return table.Value{}, fmt.Errorf("sql exec: unknown column %q", name)
	}
	return e.t.Value(row, col), nil
}

// evalBool evaluates a predicate in the context of one source row.
func (e *evaluator) evalBool(x sqlast.Expr, row int) (bool, error) {
	switch v := x.(type) {
	case *sqlast.BinOp:
		switch v.Op {
		case "AND":
			l, err := e.evalBool(v.L, row)
			if err != nil || !l {
				return false, err
			}
			return e.evalBool(v.R, row)
		case "OR":
			l, err := e.evalBool(v.L, row)
			if err != nil || l {
				return l, err
			}
			return e.evalBool(v.R, row)
		case "=", "!=", "<", "<=", ">", ">=":
			l, err := e.evalExpr(v.L, row)
			if err != nil {
				if errors.Is(err, errEmptyAggregate) {
					return false, nil // NULL comparison semantics
				}
				return false, err
			}
			r, err := e.evalExpr(v.R, row)
			if err != nil {
				if errors.Is(err, errEmptyAggregate) {
					return false, nil
				}
				return false, err
			}
			return compareValues(v.Op, l, r), nil
		default:
			return false, fmt.Errorf("sql exec: %q is not a predicate operator", v.Op)
		}
	case *sqlast.NotExpr:
		b, err := e.evalBool(v.Arg, row)
		return !b, err
	case *sqlast.InSubq:
		l, err := e.evalExpr(v.L, row)
		if err != nil {
			return false, err
		}
		rows, err := e.query(v.Q)
		if err != nil {
			return false, err
		}
		for _, val := range rows.FirstColumn() {
			if l.Equal(val) {
				return true, nil
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("sql exec: %T is not a predicate", x)
	}
}

// compareValues applies a comparison with the same typing discipline as
// the lambda DCS executor: equality is entity equality; range operators
// apply only between numeric-interpretable values, so text never
// satisfies "more than 4".
func compareValues(op string, l, r table.Value) bool {
	switch op {
	case "=":
		return l.Equal(r)
	case "!=":
		return !l.Equal(r)
	}
	if !l.IsNumeric() || !r.IsNumeric() {
		return false
	}
	c := l.Compare(r)
	switch op {
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

// evalGroupExpr evaluates an expression in the context of a row group.
func (e *evaluator) evalGroupExpr(x sqlast.Expr, rows []int) (table.Value, error) {
	switch v := x.(type) {
	case *sqlast.Lit:
		return v.V, nil
	case *sqlast.ColRef:
		if len(rows) == 0 {
			return table.Value{}, fmt.Errorf("sql exec: column %q over an empty group", v.Name)
		}
		return e.colValue(v.Name, rows[0])
	case *sqlast.ScalarSubq:
		return e.scalar(v.Q)
	case *sqlast.AggrCall:
		return e.evalAggr(v, rows)
	case *sqlast.BinOp:
		if v.Op == "+" || v.Op == "-" {
			l, err := e.evalGroupExpr(v.L, rows)
			if err != nil {
				return table.Value{}, err
			}
			r, err := e.evalGroupExpr(v.R, rows)
			if err != nil {
				return table.Value{}, err
			}
			lf, lok := l.Float()
			rf, rok := r.Float()
			if !lok || !rok {
				return table.Value{}, fmt.Errorf("sql exec: arithmetic on non-numeric values %q, %q", l, r)
			}
			if v.Op == "+" {
				return table.NumberValue(lf + rf), nil
			}
			return table.NumberValue(lf - rf), nil
		}
		return table.Value{}, fmt.Errorf("sql exec: %q is not an aggregate expression", v.Op)
	default:
		return table.Value{}, fmt.Errorf("sql exec: cannot evaluate %T in an aggregate query", x)
	}
}

func (e *evaluator) evalAggr(a *sqlast.AggrCall, rows []int) (table.Value, error) {
	if a.Fn == "COUNT" {
		if a.Star {
			return table.NumberValue(float64(len(rows))), nil
		}
		if a.Distinct {
			seen := make(map[string]bool)
			for _, r := range rows {
				v, err := e.evalExpr(a.Arg, r)
				if err != nil {
					return table.Value{}, err
				}
				seen[v.Key()] = true
			}
			return table.NumberValue(float64(len(seen))), nil
		}
		return table.NumberValue(float64(len(rows))), nil
	}
	if len(rows) == 0 {
		return table.Value{}, fmt.Errorf("sql exec: %s over an empty set: %w", a.Fn, errEmptyAggregate)
	}
	var vals []table.Value
	seen := make(map[string]bool)
	for _, r := range rows {
		v, err := e.evalExpr(a.Arg, r)
		if err != nil {
			return table.Value{}, err
		}
		if a.Distinct {
			if k := v.Key(); seen[k] {
				continue
			} else {
				seen[k] = true
			}
		}
		vals = append(vals, v)
	}
	switch a.Fn {
	case "MIN", "MAX":
		best := vals[0]
		for _, v := range vals[1:] {
			c := v.Compare(best)
			if (a.Fn == "MAX" && c > 0) || (a.Fn == "MIN" && c < 0) {
				best = v
			}
		}
		return best, nil
	case "SUM", "AVG":
		s := 0.0
		for _, v := range vals {
			f, ok := v.Float()
			if !ok {
				return table.Value{}, fmt.Errorf("sql exec: %s over non-numeric value %q", a.Fn, v)
			}
			s += f
		}
		if a.Fn == "AVG" {
			s /= float64(len(vals))
		}
		return table.NumberValue(s), nil
	}
	return table.Value{}, fmt.Errorf("sql exec: unknown aggregate %q", a.Fn)
}

func itemsHaveAggr(items []sqlast.SelectItem) bool {
	for _, it := range items {
		if hasAggr(it.Expr) {
			return true
		}
	}
	return false
}

func hasAggr(e sqlast.Expr) bool {
	switch v := e.(type) {
	case nil:
		return false
	case *sqlast.AggrCall:
		return true
	case *sqlast.BinOp:
		return hasAggr(v.L) || hasAggr(v.R)
	case *sqlast.NotExpr:
		return hasAggr(v.Arg)
	default:
		return false
	}
}
