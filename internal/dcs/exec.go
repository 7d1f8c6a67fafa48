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
