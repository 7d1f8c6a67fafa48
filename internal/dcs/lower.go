package dcs

import (
	"context"
	"errors"
	"fmt"

	"nlexplain/internal/plan"
	"nlexplain/internal/table"
)

// Compiled is a checked lambda DCS expression lowered into the shared
// relational plan IR and optimized, bound to the table it was compiled
// against (column references are resolved to indices). Compiled plans
// are immutable and safe for concurrent execution.
type Compiled struct {
	// Expr is the source expression. Callers read it to say what they
	// ran; a failing execution names the sub-expression that failed off
	// the plan node itself (plan.Aggregate.Src, plan.Arith.Src).
	Expr Expr
	// Root is the optimized plan tree.
	Root plan.Node
}

// Compile type-checks e against t, lowers it into the relational plan
// IR and applies the rule-based rewriter.
func Compile(e Expr, t *table.Table) (*Compiled, error) {
	if err := Check(e, t); err != nil {
		return nil, err
	}
	n, err := Lower(e, t)
	if err != nil {
		return nil, err
	}
	return &Compiled{Expr: e, Root: plan.Optimize(n)}, nil
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
// the expression it was lowered from (plan.Error), which comes back as
// the *ExecError about that sub-expression; a context error comes back
// as it is.
func (c *Compiled) ExecuteWithCtx(ctx context.Context, t *table.Table, tr plan.Tracer) (*Result, error) {
	// The plan value lives on the stack; RunIntoCtx detaches the
	// execution arena's buffers into it, and resultFromVal moves the
	// slices into the caller-owned Result — one allocation end to end.
	var v plan.Val
	if err := plan.RunIntoCtx(ctx, &v, c.Root, t, tr); err != nil {
		var pe *plan.Error
		if errors.As(err, &pe) {
			src, _ := pe.Src.(Expr) // Lower sets it on both nodes that can fail
			err = &ExecError{Expr: src, Msg: pe.Msg}
		}
		return nil, err
	}
	return resultFromVal(&v), nil
}

// Lower translates a checked expression into an unoptimized plan tree.
// Column names are resolved against t; call Check first — Lower
// assumes references are valid.
func Lower(e Expr, t *table.Table) (plan.Node, error) {
	col := func(name string) (int, error) {
		c, ok := t.ColumnIndex(name)
		if !ok {
			return 0, &ExecError{Expr: e, Msg: fmt.Sprintf("unknown column %q", name)}
		}
		return c, nil
	}
	switch x := e.(type) {
	case *ValueLit:
		return &plan.Const{Values: []table.Value{x.V}}, nil
	case *AllRecords:
		return &plan.Scan{}, nil
	case *Join:
		c, err := col(x.Column)
		if err != nil {
			return nil, err
		}
		arg, err := Lower(x.Arg, t)
		if err != nil {
			return nil, err
		}
		return &plan.Lookup{Col: c, Input: arg}, nil
	case *ColumnValues:
		c, err := col(x.Column)
		if err != nil {
			return nil, err
		}
		recs, err := Lower(x.Records, t)
		if err != nil {
			return nil, err
		}
		return &plan.ProjectCol{Input: recs, Col: c}, nil
	case *Prev:
		in, err := Lower(x.Records, t)
		if err != nil {
			return nil, err
		}
		return &plan.Shift{Input: in, Delta: -1}, nil
	case *Next:
		in, err := Lower(x.Records, t)
		if err != nil {
			return nil, err
		}
		return &plan.Shift{Input: in, Delta: +1}, nil
	case *Intersect:
		l, err := Lower(x.L, t)
		if err != nil {
			return nil, err
		}
		r, err := Lower(x.R, t)
		if err != nil {
			return nil, err
		}
		return &plan.Intersect{L: l, R: r}, nil
	case *Union:
		l, err := Lower(x.L, t)
		if err != nil {
			return nil, err
		}
		r, err := Lower(x.R, t)
		if err != nil {
			return nil, err
		}
		return &plan.Union{L: l, R: r}, nil
	case *Aggregate:
		in, err := Lower(x.Arg, t)
		if err != nil {
			return nil, err
		}
		return &plan.Aggregate{Fn: string(x.Fn), Input: in, Src: x}, nil
	case *Sub:
		l, err := Lower(x.L, t)
		if err != nil {
			return nil, err
		}
		r, err := Lower(x.R, t)
		if err != nil {
			return nil, err
		}
		return &plan.Arith{Op2: "-", L: l, R: r, Src: x}, nil
	case *ArgRecords:
		c, err := col(x.Column)
		if err != nil {
			return nil, err
		}
		in, err := Lower(x.Records, t)
		if err != nil {
			return nil, err
		}
		return &plan.Superlative{Input: in, Col: c, Max: x.Max}, nil
	case *IndexSuperlative:
		c, err := col(x.Column)
		if err != nil {
			return nil, err
		}
		in, err := Lower(x.Records, t)
		if err != nil {
			return nil, err
		}
		return &plan.IndexSuper{Input: in, Col: c, First: x.First}, nil
	case *MostFrequent:
		c, err := col(x.Column)
		if err != nil {
			return nil, err
		}
		var in plan.Node
		if x.Vals != nil {
			in, err = Lower(x.Vals, t)
			if err != nil {
				return nil, err
			}
		}
		return &plan.MostFrequent{Input: in, Col: c}, nil
	case *CompareValues:
		kc, err := col(x.KeyCol)
		if err != nil {
			return nil, err
		}
		vc, err := col(x.ValCol)
		if err != nil {
			return nil, err
		}
		in, err := Lower(x.Vals, t)
		if err != nil {
			return nil, err
		}
		return &plan.CompareVals{Input: in, KeyCol: kc, ValCol: vc, Max: x.Max}, nil
	case *Compare:
		c, err := col(x.Column)
		if err != nil {
			return nil, err
		}
		return &plan.Compare{Col: c, Cmp: string(x.Op), V: x.V}, nil
	}
	return nil, &ExecError{Expr: e, Msg: fmt.Sprintf("unknown expression type %T", e)}
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
