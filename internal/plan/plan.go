// Package plan is the relational plan core lambda DCS expressions
// (internal/dcs) compile into: a small operator IR, built and folded in
// dcs's one compile walk and executed by one vectorized executor
// (internal/plan/exec.go) walking the typed column vectors of
// internal/table instead of boxed [][]Value rows. Nodes hold values,
// never canonical key strings: a join (Lookup, over a Const for a
// literal set) finds each value's records through table.RowsFor. Mini-SQL
// (internal/minisql) does not run here; its interpreter is its only
// executor.
//
// A plan node denotes one of three result kinds:
//
//	RowsKind   — a set of base-table record indices, always ascending;
//	ValuesKind — an ordered set of distinct cell values (lambda DCS
//	             unaries are sets; first-appearance order is kept);
//	ScalarKind — a single number (aggregate or arithmetic output).
//
// Provenance capture is factored behind the Tracer interface
// (trace.go): with an inactive tracer the executor skips every witness
// cell computation — the answer-only fast path — while an active
// tracer receives each operator's witness cells at its boundary,
// giving the provenance layer PO (root cells) and PE (union over
// boundaries) in a single execution.
package plan

import (
	"fmt"
	"strings"

	"nlexplain/internal/table"
)

// Kind is the result kind a plan node denotes.
type Kind int

const (
	// RowsKind denotes a sorted set of base-table record indices.
	RowsKind Kind = iota
	// ValuesKind denotes an ordered set of distinct cell values.
	ValuesKind
	// ScalarKind denotes a single number.
	ScalarKind
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case RowsKind:
		return "rows"
	case ValuesKind:
		return "values"
	case ScalarKind:
		return "scalar"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is one relational plan operator. Nodes are immutable once
// built.
type Node interface {
	// Kind is the node's result kind.
	Kind() Kind
	// Op names the operator for tracing and plan rendering.
	Op() string
	// Children returns the direct inputs, for generic traversal.
	Children() []Node
}

// ---- Row-producing operators ----

// Scan denotes every record of the table, in order.
type Scan struct{}

// Kind of a scan is rows.
func (*Scan) Kind() Kind { return RowsKind }

// Op names the operator.
func (*Scan) Op() string { return "Scan" }

// Children is empty.
func (*Scan) Children() []Node { return nil }

// Lookup denotes the records whose value in Col is a member of the
// value set denoted by Input — the lambda DCS join C.v, over a Const
// when its argument is a literal set — answered from the table's KB
// index one value at a time (table.RowsFor).
type Lookup struct {
	Col   int
	Input Node // ValuesKind
}

// Kind of a lookup is rows.
func (*Lookup) Kind() Kind { return RowsKind }

// Op names the operator.
func (*Lookup) Op() string { return "Lookup" }

// Children returns the value input.
func (l *Lookup) Children() []Node { return []Node{l.Input} }

// Compare denotes the records whose value in Col satisfies Op against
// the literal V, over the whole table — the comparative of the paper.
// Range operators (<, <=, >, >=) apply only between numeric values.
// The column alone decides how one runs: over a column with no NaN cell
// it is answered from the lazily built sorted numeric index in
// O(log n), over a column that spells a NaN by a scan of its float
// vector under zone verdicts. "!=" is entity inequality. Entity equality is a Lookup over a Const.
type Compare struct {
	Col int
	Cmp string // < <= > >= !=
	V   table.Value
}

// Kind of a comparison is rows.
func (*Compare) Kind() Kind { return RowsKind }

// Op names the operator.
func (*Compare) Op() string { return "Compare" }

// Children is empty.
func (*Compare) Children() []Node { return nil }

// Shift denotes the records Delta positions away from Input's records
// (Prev is -1, Next is +1), clipped to the table.
type Shift struct {
	Input Node // RowsKind
	Delta int
}

// Kind of a shift is rows.
func (*Shift) Kind() Kind { return RowsKind }

// Op names the operator.
func (*Shift) Op() string { return "Shift" }

// Children returns the row input.
func (s *Shift) Children() []Node { return []Node{s.Input} }

// Intersect denotes the records common to both inputs.
type Intersect struct{ L, R Node }

// Kind of an intersection is rows.
func (*Intersect) Kind() Kind { return RowsKind }

// Op names the operator.
func (*Intersect) Op() string { return "Intersect" }

// Children returns both inputs.
func (n *Intersect) Children() []Node { return []Node{n.L, n.R} }

// Union denotes the set union of two inputs of the same kind (rows or
// values).
type Union struct{ L, R Node }

// Kind of a union follows its operands.
func (n *Union) Kind() Kind { return n.L.Kind() }

// Op names the operator.
func (*Union) Op() string { return "Union" }

// Children returns both inputs.
func (n *Union) Children() []Node { return []Node{n.L, n.R} }

// Superlative denotes the records of Input achieving the extreme value
// of column Col (argmax/argmin with ties, Top-1 of the ordering). Over
// a full Scan of an all-numeric column with no NaN cell it is answered
// from the ends of the sorted numeric index, built on first use,
// instead of a full comparison scan.
type Superlative struct {
	Input Node // RowsKind
	Col   int
	Max   bool
}

// Kind of a superlative is rows.
func (*Superlative) Kind() Kind { return RowsKind }

// Op names the operator.
func (*Superlative) Op() string { return "Superlative" }

// Children returns the candidate rows.
func (s *Superlative) Children() []Node { return []Node{s.Input} }

// ---- Value-producing operators ----

// Const denotes a constant value set.
type Const struct{ Values []table.Value }

// Kind of a constant is values.
func (*Const) Kind() Kind { return ValuesKind }

// Op names the operator.
func (*Const) Op() string { return "Const" }

// Children is empty.
func (*Const) Children() []Node { return nil }

// ProjectCol denotes the distinct values of column Col over Input's
// records, in first-appearance order (the lambda DCS reverse join
// R[C].records; projection with implicit Distinct).
type ProjectCol struct {
	Input Node // RowsKind
	Col   int
}

// Kind of a column projection is values.
func (*ProjectCol) Kind() Kind { return ValuesKind }

// Op names the operator.
func (*ProjectCol) Op() string { return "ProjectCol" }

// Children returns the row input.
func (p *ProjectCol) Children() []Node { return []Node{p.Input} }

// IndexSuper denotes the value of column Col in the first (or last)
// record of Input — the index superlative R[C].argmin(records, Index).
type IndexSuper struct {
	Input Node // RowsKind
	Col   int
	First bool
}

// Kind of an index superlative is values.
func (*IndexSuper) Kind() Kind { return ValuesKind }

// Op names the operator.
func (*IndexSuper) Op() string { return "IndexSuper" }

// Children returns the row input.
func (s *IndexSuper) Children() []Node { return []Node{s.Input} }

// MostFrequent denotes, among the candidate values (Input, or every
// distinct value of Col when Input is nil), the one appearing the most
// in column Col; ties break to the earliest first appearance.
type MostFrequent struct {
	Input Node // ValuesKind, or nil for all values of Col
	Col   int
}

// Kind of a most-frequent superlative is values.
func (*MostFrequent) Kind() Kind { return ValuesKind }

// Op names the operator.
func (*MostFrequent) Op() string { return "MostFrequent" }

// Children returns the candidate input, when present.
func (m *MostFrequent) Children() []Node {
	if m.Input == nil {
		return nil
	}
	return []Node{m.Input}
}

// CompareVals denotes, among the candidate values of column ValCol,
// the ones whose records achieve the extreme value of column KeyCol
// (the comparing superlative argmax(vals, R[λx.R[C1].C2.x])).
type CompareVals struct {
	Input  Node // ValuesKind
	KeyCol int
	ValCol int
	Max    bool
}

// Kind of a comparing superlative is values.
func (*CompareVals) Kind() Kind { return ValuesKind }

// Op names the operator.
func (*CompareVals) Op() string { return "CompareVals" }

// Children returns the candidate values.
func (c *CompareVals) Children() []Node { return []Node{c.Input} }

// ---- Scalar operators ----

// Aggregate applies Fn (count, min, max, sum, avg) to Input and
// denotes a scalar. Count accepts rows or values; the rest need
// numeric values, and at least one — Aggregate and Arith are the two
// operators that can fail on what the table holds. Src is the front
// end's expression the node was built from; the executor never reads
// it, only hands it back in the Error it returns.
type Aggregate struct {
	Fn    string
	Input Node
	Src   any
}

// Kind of an aggregate is scalar.
func (*Aggregate) Kind() Kind { return ScalarKind }

// Op names the operator.
func (*Aggregate) Op() string { return "Aggregate" }

// Children returns the aggregated input.
func (a *Aggregate) Children() []Node { return []Node{a.Input} }

// Arith denotes the arithmetic combination of two scalar-ish inputs
// (singleton value sets or scalars); Op is "-" or "+". It fails on an
// operand that is not exactly one numeric value; Src is as on
// Aggregate.
type Arith struct {
	Op2  string
	L, R Node
	Src  any
}

// Kind of an arithmetic node is scalar.
func (*Arith) Kind() Kind { return ScalarKind }

// Op names the operator.
func (*Arith) Op() string { return "Arith" }

// Children returns both operands.
func (a *Arith) Children() []Node { return []Node{a.L, a.R} }

// Error is the failure of an operator on the data it met — an
// aggregate over no values or over text, a difference of something that
// is not one number — as opposed to a cancelled run. Src is the failing
// node's Src, so a front end can name the sub-expression in its own
// syntax; Msg names the operation ("max over an empty set").
type Error struct {
	Src any
	Msg string
}

// Error returns Msg.
func (e *Error) Error() string { return e.Msg }

func errorf(src any, format string, args ...any) error {
	return &Error{Src: src, Msg: fmt.Sprintf(format, args...)}
}

// Format renders a plan tree as an indented outline, for debugging,
// tests and documentation.
func Format(n Node) string {
	var b strings.Builder
	formatNode(&b, n, 0)
	return b.String()
}

func formatNode(b *strings.Builder, n Node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(describe(n))
	b.WriteByte('\n')
	for _, c := range n.Children() {
		formatNode(b, c, depth+1)
	}
}

func describe(n Node) string {
	switch x := n.(type) {
	case *Lookup:
		return fmt.Sprintf("Lookup(col=%d)", x.Col)
	case *Compare:
		return fmt.Sprintf("Compare(col=%d %s %s)", x.Col, x.Cmp, x.V)
	case *Shift:
		return fmt.Sprintf("Shift(%+d)", x.Delta)
	case *Superlative:
		return fmt.Sprintf("Superlative(col=%d, max=%t)", x.Col, x.Max)
	case *Const:
		vals := make([]string, len(x.Values))
		for i, v := range x.Values {
			vals[i] = v.String()
		}
		return "Const[" + strings.Join(vals, ", ") + "]"
	case *ProjectCol:
		return fmt.Sprintf("ProjectCol(col=%d)", x.Col)
	case *IndexSuper:
		return fmt.Sprintf("IndexSuper(col=%d, first=%t)", x.Col, x.First)
	case *MostFrequent:
		return fmt.Sprintf("MostFrequent(col=%d)", x.Col)
	case *CompareVals:
		return fmt.Sprintf("CompareVals(key=%d, val=%d, max=%t)", x.KeyCol, x.ValCol, x.Max)
	case *Aggregate:
		return "Aggregate(" + x.Fn + ")"
	case *Arith:
		return "Arith(" + x.Op2 + ")"
	default:
		return n.Op()
	}
}
