package plan

import "nlexplain/internal/table"

// Optimize folds constants bottom-up until a fixpoint: Union, Lookup,
// Aggregate and Arith over Const inputs collapse into Const nodes or
// IndexLookup keys.
//
// Folding preserves each surviving operator's witness cells (folded
// nodes all have empty PO), so optimized plans are safe to execute
// under an active Tracer: PO and PE are unchanged.
func Optimize(n Node) Node {
	for {
		next, changed := rewrite(n)
		n = next
		if !changed {
			return n
		}
	}
}

// rewrite performs one bottom-up pass, reporting whether anything
// changed.
func rewrite(n Node) (Node, bool) {
	changed := false
	opt := func(c Node) Node {
		out, ch := rewrite(c)
		changed = changed || ch
		return out
	}
	switch x := n.(type) {
	case *Lookup:
		in := opt(x.Input)
		// Constant folding of the join argument: a Lookup over a known
		// value set is a KB index lookup.
		if c, ok := in.(*Const); ok {
			return &IndexLookup{Col: x.Col, Keys: c.Values}, true
		}
		if in != x.Input {
			return &Lookup{Col: x.Col, Input: in}, changed
		}
	case *Union:
		l, r := opt(x.L), opt(x.R)
		lc, lok := l.(*Const)
		rc, rok := r.(*Const)
		if lok && rok {
			// Constant folding: a union of literal value sets is one
			// deduplicated literal set.
			merged := append(append([]table.Value(nil), lc.Values...), rc.Values...)
			return &Const{Values: table.DedupValues(merged)}, true
		}
		if l != x.L || r != x.R {
			return &Union{L: l, R: r}, changed
		}
	case *Aggregate:
		in := opt(x.Input)
		if c, ok := in.(*Const); ok && x.Fn == "count" {
			// Constant folding: counting a literal set needs no table.
			n := float64(len(table.DedupValues(c.Values)))
			return &constScalar{Const{Values: []table.Value{table.NumberValue(n)}}, "count"}, true
		}
		if in != x.Input {
			return &Aggregate{Fn: x.Fn, Input: in, Src: x.Src}, changed
		}
	case *Arith:
		l, r := opt(x.L), opt(x.R)
		lf, lok := constScalarOperand(l)
		rf, rok := constScalarOperand(r)
		if lok && rok && x.Op2 == "-" {
			return &constScalar{Const{Values: []table.Value{table.NumberValue(lf - rf)}}, ""}, true
		}
		if l != x.L || r != x.R {
			return &Arith{Op2: x.Op2, L: l, R: r, Src: x.Src}, changed
		}
	case *Shift:
		if in := opt(x.Input); in != x.Input {
			return &Shift{Input: in, Delta: x.Delta}, changed
		}
	case *Intersect:
		l, r := opt(x.L), opt(x.R)
		if l != x.L || r != x.R {
			return &Intersect{L: l, R: r}, changed
		}
	case *Superlative:
		if in := opt(x.Input); in != x.Input {
			return &Superlative{Input: in, Col: x.Col, Max: x.Max}, changed
		}
	case *ProjectCol:
		if in := opt(x.Input); in != x.Input {
			return &ProjectCol{Input: in, Col: x.Col}, changed
		}
	case *IndexSuper:
		if in := opt(x.Input); in != x.Input {
			return &IndexSuper{Input: in, Col: x.Col, First: x.First}, changed
		}
	case *MostFrequent:
		if x.Input != nil {
			if in := opt(x.Input); in != x.Input {
				return &MostFrequent{Input: in, Col: x.Col}, changed
			}
		}
	case *CompareVals:
		if in := opt(x.Input); in != x.Input {
			return &CompareVals{Input: in, KeyCol: x.KeyCol, ValCol: x.ValCol, Max: x.Max}, changed
		}
	}
	return n, changed
}

// constScalar is a folded scalar constant: a Const that reports
// ScalarKind and remembers the aggregate that produced it.
type constScalar struct {
	Const
	aggr string
}

// Kind of a folded scalar is scalar.
func (*constScalar) Kind() Kind { return ScalarKind }

// Op names the operator.
func (*constScalar) Op() string { return "ConstScalar" }

func constScalarOperand(n Node) (float64, bool) {
	var vals []table.Value
	switch x := n.(type) {
	case *Const:
		vals = x.Values
	case *constScalar:
		vals = x.Values
	default:
		return 0, false
	}
	if len(vals) != 1 {
		return 0, false
	}
	return vals[0].Float()
}
