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
	Records []int         // sorted record indices (RecordsType)
	Values  []table.Value // distinct values (ValuesType), or the single scalar (ScalarType)
	Cells   table.Level   // output/witness cells, held by column
	Aggr    AggrFn        // non-empty when a scalar came from an aggregation
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

// String renders the denotation compactly: records[0 2], {a, b}, or
// the scalar. Ids and values are appended into one buffer, sized before
// the first is written, through a scratch array on the stack.
func (r *Result) String() string {
	if r.Type == ScalarType {
		if len(r.Values) == 0 {
			return "scalar{}"
		}
		return r.Values[0].String()
	}
	var b strings.Builder
	var scratch [32]byte
	if r.Type == RecordsType {
		if n := len(r.Records); n > 0 {
			// The records ascend: none is longer than the last.
			b.Grow(len("records[]") + n*(len(strconv.AppendInt(scratch[:0], int64(r.Records[n-1]), 10))+1))
		}
		b.WriteString("records[")
		for i, rec := range r.Records {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.Write(strconv.AppendInt(scratch[:0], int64(rec), 10))
		}
		b.WriteByte(']')
		return b.String()
	}
	// Text is written as it is; numbers and dates are rendered on the
	// stack, once to size the buffer and once into it.
	n := len("{}")
	for _, v := range r.Values {
		if v.Kind == table.String {
			n += len(v.Str) + len(", ")
		} else {
			n += len(v.AppendTo(scratch[:0])) + len(", ")
		}
	}
	b.Grow(n)
	b.WriteByte('{')
	for i, v := range r.Values {
		if i > 0 {
			b.WriteString(", ")
		}
		if v.Kind == table.String {
			b.WriteString(v.Str)
		} else {
			b.Write(v.AppendTo(scratch[:0]))
		}
	}
	b.WriteByte('}')
	return b.String()
}

// ExecError is a dynamic execution error (e.g. aggregating text).
type ExecError struct {
	Expr Expr
	Msg  string
}

// Error implements the error interface.
func (e *ExecError) Error() string {
	return fmt.Sprintf("executing %s: %s", Clip(fmt.Sprint(e.Expr)), e.Msg)
}

// Execute evaluates an expression against a table by compiling it into
// the shared relational plan IR (internal/plan) and running the
// vectorized executor with witness-cell capture on, so the Result
// carries the PO cells the provenance model needs. Compile checks the
// expression first, so Execute is safe to call on untrusted input. This
// is the one executor the package holds; the tree-walking reference it
// is tested against, result by result and error by error, is
// internal/oracle, which only tests import.
func Execute(e Expr, t *table.Table) (*Result, error) {
	return ExecuteIn(nil, e, t, plan.Capture{})
}

// ExecuteAnswer is the answer-only fast path: the compiled plan runs
// under an inactive tracer, skipping every witness-cell computation.
// The Result's denotation (Records/Values/AnswerKey) is identical to
// Execute's but Cells is always the empty level. Use it where only the answer
// matters — candidate generation, gold-answer comparison (Eq. 5) and
// batch serving.
func ExecuteAnswer(e Expr, t *table.Table) (*Result, error) {
	return ExecuteIn(nil, e, t, plan.Noop{})
}

// ExecuteIn compiles e and runs the plan once in executor x (nil: the
// package default) under tr. The Compiled lives on the stack: a plan
// nobody keeps needs no heap wrapper.
func ExecuteIn(x *plan.Exec, e Expr, t *table.Table, tr plan.Tracer) (*Result, error) {
	root, _, err := compile(e, t)
	if err != nil {
		return nil, err
	}
	c := Compiled{Expr: e, Root: root, Exec: x}
	return c.ExecuteWith(t, tr)
}
