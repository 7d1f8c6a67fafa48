package plan

import "nlexplain/internal/table"

// Optimize applies the rule-based rewriter bottom-up until a fixpoint:
//
//   - constant folding: Union/Lookup/Aggregate/Arith over Const inputs
//     collapse into Const nodes or IndexLookup keys;
//   - predicate pushdown: Filter(Scan, col = v) becomes an IndexLookup
//     answered from the table's KB index, and conjunctions split so a
//     pushable leading conjunct can sink while the rest stays a Filter;
//   - Filter+Scan fusion: Filter(Scan, col op v) over range and
//     inequality predicates becomes a Compare node, which the executor
//     answers from the sorted numeric index;
//   - Distinct elimination: Distinct over provably distinct inputs
//     (a global aggregate's single row, a scalar difference, another
//     Distinct) disappears.
//
// Every rule preserves each surviving operator's witness cells (folded
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
	case *Filter:
		in := opt(x.Input)
		if _, isScan := in.(*Scan); isScan {
			if cp, ok := x.Pred.(*CmpPred); ok {
				// Predicate pushdown / Filter+Scan fusion.
				if cp.Op == "=" {
					return &IndexLookup{Col: cp.Col, Keys: []table.Value{cp.V}}, true
				}
				return &Compare{Col: cp.Col, Cmp: cp.Op, V: cp.V}, true
			}
			if ap, ok := x.Pred.(*AndPred); ok {
				if l, pushable := ap.L.(*CmpPred); pushable && (l.Op == "=" || !predAllCmp(ap.R)) {
					// Split the conjunction so the native leading conjunct
					// can sink into an index on the next pass; evaluation
					// order (left before right) is preserved. An equality
					// conjunct always sinks (the KB posting list is exact);
					// a range conjunct sinks only when the rest contains an
					// opaque closure — a pure conjunction of native
					// comparisons stays fused over the scan, where the
					// executor answers it with zone-map data skipping
					// instead of materialising a wide range intermediate.
					return &Filter{Input: &Filter{Input: in, Pred: ap.L}, Pred: ap.R}, true
				}
			}
		}
		if in != x.Input {
			return &Filter{Input: in, Pred: x.Pred}, changed
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
	case *Distinct:
		in := opt(x.Input)
		if distinctByConstruction(in) {
			return in, true
		}
		if in != x.Input {
			return &Distinct{Input: in}, changed
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
	case *SQLProject:
		if in := opt(x.Input); in != x.Input {
			return &SQLProject{Input: in, Items: x.Items, Order: x.Order}, changed
		}
	case *SQLAggregate:
		if in := opt(x.Input); in != x.Input {
			return &SQLAggregate{Input: in, GroupCol: x.GroupCol, Items: x.Items, Order: x.Order, Desc: x.Desc}, changed
		}
	case *Limit:
		if in := opt(x.Input); in != x.Input {
			return &Limit{Input: in, N: x.N}, changed
		}
	case *SQLUnion:
		l, r := opt(x.L), opt(x.R)
		if l != x.L || r != x.R {
			return &SQLUnion{L: l, R: r}, changed
		}
	case *SQLDiff:
		l, r := opt(x.L), opt(x.R)
		if l != x.L || r != x.R {
			return &SQLDiff{L: l, R: r}, changed
		}
	}
	return n, changed
}

// predAllCmp reports whether a predicate tree is built purely from
// native comparisons (CmpPred leaves under And/Or/Not) — the shape the
// executor's zone-map consultation can reason about block by block.
func predAllCmp(p Pred) bool {
	switch x := p.(type) {
	case *CmpPred:
		return true
	case *AndPred:
		return predAllCmp(x.L) && predAllCmp(x.R)
	case *OrPred:
		return predAllCmp(x.L) && predAllCmp(x.R)
	case *NotPred:
		return predAllCmp(x.P)
	}
	return false
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

// distinctByConstruction reports that a table node cannot produce
// duplicate rows: a global aggregate and a scalar difference emit
// exactly one row, and Distinct output is distinct by definition.
func distinctByConstruction(n Node) bool {
	switch x := n.(type) {
	case *Distinct, *SQLDiff:
		return true
	case *SQLAggregate:
		return x.GroupCol < 0
	case *Limit:
		return x.N <= 1 || distinctByConstruction(x.Input)
	}
	return false
}
