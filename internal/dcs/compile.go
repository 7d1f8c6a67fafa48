package dcs

import (
	"cmp"
	"context"
	"errors"

	"nlexplain/internal/plan"
	"nlexplain/internal/table"
)

// Compiled is a checked lambda DCS expression built into the shared
// relational plan IR, bound to the table it was compiled against
// (column references are resolved to indices). Compiled plans are
// immutable and safe for concurrent execution.
type Compiled struct {
	// Expr is the source expression. Callers read it to say what they
	// ran; a failing execution names the sub-expression that failed off
	// the plan node itself (plan.Aggregate.Src, plan.Arith.Src).
	Expr Expr
	// Root is the plan tree.
	Root plan.Node
	// Exec is the executor the plan runs in; nil is the package default.
	Exec *plan.Exec
}

// Compile type-checks e against t and builds its plan in the same one
// walk (compile), folding literal sets as it goes.
func Compile(e Expr, t *table.Table) (*Compiled, error) {
	root, _, err := compile(e, t)
	if err != nil {
		return nil, err
	}
	return &Compiled{Expr: e, Root: root}, nil
}

// ExecuteWith runs the compiled plan under the given tracer and
// converts the plan value back into a lambda DCS Result. With an
// inactive tracer the Result carries no witness cells.
func (c *Compiled) ExecuteWith(t *table.Table, tr plan.Tracer) (*Result, error) {
	return c.ExecuteWithCtx(nil, t, tr)
}

// ExecuteWithCtx is ExecuteWith with cooperative cancellation: the
// executor polls ctx at every morsel boundary, so a caller that gave up
// does not pay for a full million-row scan. A nil ctx disables the
// checks. The plan runs once: an operator that fails on the data names
// the expression it was built from (plan.Error), which comes back as
// the *ExecError about that sub-expression; a context error comes back
// as it is.
func (c *Compiled) ExecuteWithCtx(ctx context.Context, t *table.Table, tr plan.Tracer) (*Result, error) {
	// The plan value lives on the stack; RunIntoCtx detaches the
	// execution arena's buffers into it, and resultFromVal moves the
	// slices into the caller-owned Result — one allocation end to end.
	var v plan.Val
	if err := plan.RunIntoCtx(ctx, c.Exec, &v, c.Root, t, tr); err != nil {
		var pe *plan.Error
		if errors.As(err, &pe) {
			src, _ := pe.Src.(Expr) // compile sets it on both nodes that can fail
			err = &ExecError{Expr: src, Msg: pe.Msg}
		}
		return nil, err
	}
	return resultFromVal(&v), nil
}

// compile is the one walk from expression to plan. Bottom-up, it checks
// each node, resolves the node's columns once and builds its plan node,
// folding a union of two literal sets into one deduplicated Const (a join
// over a literal set is a Lookup over it; comparisons are < <= > >= !=).
// It returns the node's static type even when it fails, so that the
// parent can check its operands. Of several errors it reports the first
// in pre-order: a node's own (its columns, then its operands' types)
// before its operands', left before right.
func compile(e Expr, t *table.Table) (plan.Node, Type, error) {
	switch x := e.(type) {
	case *ValueLit:
		return &plan.Const{Values: []table.Value{x.V}}, ValuesType, nil
	case *AllRecords:
		return &plan.Scan{}, RecordsType, nil
	case *Join:
		c, err := column(e, x.Column, t)
		if err != nil {
			return nil, RecordsType, err
		}
		arg, typ, err := compile(x.Arg, t)
		if typ != ValuesType {
			err = checkErr(e, "join argument must denote values, got %s", typ)
		}
		if err != nil {
			return nil, RecordsType, err
		}
		return &plan.Lookup{Col: c, Input: arg}, RecordsType, nil
	case *ColumnValues:
		c, err := column(e, x.Column, t)
		if err != nil {
			return nil, ValuesType, err
		}
		in, typ, err := compile(x.Records, t)
		if typ != RecordsType {
			err = checkErr(e, "reverse join argument must denote records, got %s", typ)
		}
		if err != nil {
			return nil, ValuesType, err
		}
		return &plan.ProjectCol{Input: in, Col: c}, ValuesType, nil
	case *Prev:
		in, typ, err := compile(x.Records, t)
		if typ != RecordsType {
			err = checkErr(e, "Prev argument must denote records, got %s", typ)
		}
		if err != nil {
			return nil, RecordsType, err
		}
		return &plan.Shift{Input: in, Delta: -1}, RecordsType, nil
	case *Next:
		in, typ, err := compile(x.Records, t)
		if typ != RecordsType {
			err = checkErr(e, "R[Prev] argument must denote records, got %s", typ)
		}
		if err != nil {
			return nil, RecordsType, err
		}
		return &plan.Shift{Input: in, Delta: +1}, RecordsType, nil
	case *Intersect:
		l, lt, lerr := compile(x.L, t)
		r, rt, rerr := compile(x.R, t)
		err := cmp.Or(lerr, rerr)
		if lt != RecordsType || rt != RecordsType {
			err = checkErr(e, "intersection operands must denote records")
		}
		if err != nil {
			return nil, RecordsType, err
		}
		return &plan.Intersect{L: l, R: r}, RecordsType, nil
	case *Union:
		l, lt, lerr := compile(x.L, t)
		r, rt, rerr := compile(x.R, t)
		err := cmp.Or(lerr, rerr)
		if lt != rt {
			err = checkErr(e, "union operands must have the same type, got %s and %s", lt, rt)
		} else if lt == ScalarType {
			err = checkErr(e, "union of scalars is not part of the language")
		}
		if err != nil {
			return nil, lt, err
		}
		lc, lok := l.(*plan.Const)
		rc, rok := r.(*plan.Const)
		if lok && rok {
			// Both Consts were built by this walk for this union alone, so
			// the left one's slice is free to extend.
			return &plan.Const{Values: table.DedupValues(append(lc.Values, rc.Values...))}, lt, nil
		}
		return &plan.Union{L: l, R: r}, lt, nil
	case *Aggregate:
		in, typ, err := compile(x.Arg, t)
		switch x.Fn {
		case Count:
			if typ == ScalarType {
				err = checkErr(e, "count argument must be a unary")
			}
		case Min, Max, Sum, Avg:
			if typ != ValuesType {
				err = checkErr(e, "%s argument must denote values, got %s", x.Fn, typ)
			}
		default:
			err = checkErr(e, "unknown aggregate %q", x.Fn)
		}
		if err != nil {
			return nil, ScalarType, err
		}
		return &plan.Aggregate{Fn: string(x.Fn), Input: in, Src: x}, ScalarType, nil
	case *Sub:
		l, lt, lerr := compile(x.L, t)
		r, rt, rerr := compile(x.R, t)
		err := cmp.Or(lerr, rerr)
		if lt == RecordsType || rt == RecordsType {
			err = checkErr(e, "sub operands must denote values or scalars")
		}
		if err != nil {
			return nil, ScalarType, err
		}
		return &plan.Arith{Op2: "-", L: l, R: r, Src: x}, ScalarType, nil
	case *ArgRecords:
		c, err := column(e, x.Column, t)
		if err != nil {
			return nil, RecordsType, err
		}
		in, typ, err := compile(x.Records, t)
		if typ != RecordsType {
			err = checkErr(e, "argmax/argmin candidate must denote records, got %s", typ)
		}
		if err != nil {
			return nil, RecordsType, err
		}
		return &plan.Superlative{Input: in, Col: c, Max: x.Max}, RecordsType, nil
	case *IndexSuperlative:
		c, err := column(e, x.Column, t)
		if err != nil {
			return nil, ValuesType, err
		}
		in, typ, err := compile(x.Records, t)
		if typ != RecordsType {
			err = checkErr(e, "index superlative candidate must denote records")
		}
		if err != nil {
			return nil, ValuesType, err
		}
		return &plan.IndexSuper{Input: in, Col: c, First: x.First}, ValuesType, nil
	case *MostFrequent:
		c, err := column(e, x.Column, t)
		if err != nil {
			return nil, ValuesType, err
		}
		if x.Vals == nil {
			return &plan.MostFrequent{Col: c}, ValuesType, nil
		}
		in, typ, err := compile(x.Vals, t)
		if typ != ValuesType {
			err = checkErr(e, "most-frequent candidates must denote values")
		}
		if err != nil {
			return nil, ValuesType, err
		}
		return &plan.MostFrequent{Input: in, Col: c}, ValuesType, nil
	case *CompareValues:
		kc, err := column(e, x.KeyCol, t)
		if err != nil {
			return nil, ValuesType, err
		}
		vc, err := column(e, x.ValCol, t)
		if err != nil {
			return nil, ValuesType, err
		}
		in, typ, err := compile(x.Vals, t)
		if typ != ValuesType {
			err = checkErr(e, "comparing-superlative candidates must denote values")
		}
		if err != nil {
			return nil, ValuesType, err
		}
		return &plan.CompareVals{Input: in, KeyCol: kc, ValCol: vc, Max: x.Max}, ValuesType, nil
	case *Compare:
		c, err := column(e, x.Column, t)
		if err != nil {
			return nil, RecordsType, err
		}
		switch x.Op {
		case Lt, Le, Gt, Ge, Ne:
			return &plan.Compare{Col: c, Cmp: string(x.Op), V: x.V}, RecordsType, nil
		}
		return nil, RecordsType, checkErr(e, "unknown comparison operator %q", x.Op)
	}
	return nil, e.Type(), checkErr(e, "unknown expression type %T", e)
}

// column resolves a column node e names, or says that t has no such
// column.
func column(e Expr, name string, t *table.Table) (int, error) {
	c, ok := t.ColumnIndex(name)
	if !ok {
		return 0, checkErr(e, "unknown column %q in table %q", name, t.Name())
	}
	return c, nil
}

// resultFromVal converts a plan execution value back into the lambda
// DCS result shape.
func resultFromVal(v *plan.Val) *Result {
	switch v.Kind {
	case plan.RowsKind:
		return &Result{Type: RecordsType, Records: v.Rows, Cells: v.Cells}
	case plan.ScalarKind:
		return &Result{Type: ScalarType, Values: v.Values, Cells: v.Cells, Aggr: AggrFn(v.Aggr)}
	default:
		return &Result{Type: ValuesType, Values: v.Values, Cells: v.Cells}
	}
}
