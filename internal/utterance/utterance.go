// Package utterance converts lambda DCS queries into detailed natural
// language descriptions, the first query-explanation method of the paper
// (Section 5.1). Following the approach of building derivations alongside
// the formal query (Figure 3), each grammar rule of Table 3 carries an NL
// template; the utterance of a composed query embeds the utterances of
// its parts, and the full utterance is the yield of the derivation tree.
//
// The templates are domain independent — they only mention column names,
// cell values and row structure — and deliberately verbose ("albeit
// having a somewhat clumsy syntax", Section 5.1), since their job is to
// make the query semantics unambiguous to a non-expert.
package utterance

import (
	"fmt"
	"strings"

	"nlexplain/internal/dcs"
	"nlexplain/internal/table"
)

// Utter renders the NL utterance of a lambda DCS expression.
func Utter(e dcs.Expr) string { return utter(e) }

func utter(e dcs.Expr) string {
	switch x := e.(type) {
	case *dcs.ValueLit:
		return literal(x.V)

	case *dcs.AllRecords:
		return "rows"

	case *dcs.Join:
		return fmt.Sprintf("rows where value of column %s is %s", x.Column, valuePhrase(x.Arg))

	case *dcs.Compare:
		return fmt.Sprintf("rows where values of column %s are %s %s",
			x.Column, cmpPhrase(x.Op), literal(x.V))

	case *dcs.ColumnValues:
		return fmt.Sprintf("values in column %s in %s", x.Column, utter(x.Records))

	case *dcs.Prev:
		return "rows right above " + utter(x.Records)

	case *dcs.Next:
		return "rows right below " + utter(x.Records)

	case *dcs.Intersect:
		return utter(x.L) + " and also " + stripRows(utter(x.R))

	case *dcs.Union:
		if x.Type() == dcs.RecordsType {
			return utter(x.L) + " or " + stripRows(utter(x.R))
		}
		return valuePhrase(x)

	case *dcs.Aggregate:
		return aggregatePhrase(x)

	case *dcs.Sub:
		return subPhrase(x)

	case *dcs.ArgRecords:
		return fmt.Sprintf("%s that have the %s value in column %s",
			utter(x.Records), highLow(x.Max), x.Column)

	case *dcs.IndexSuperlative:
		pos := "last"
		if x.First {
			pos = "first"
		}
		return fmt.Sprintf("value of column %s where it is the %s row in %s",
			x.Column, pos, utter(x.Records))

	case *dcs.MostFrequent:
		if x.Vals == nil {
			return fmt.Sprintf("the value that appears the most in column %s", x.Column)
		}
		return fmt.Sprintf("the value of %s that appears the most in column %s",
			valuePhrase(x.Vals), x.Column)

	case *dcs.CompareValues:
		return fmt.Sprintf("between %s, who has the %s value of column %s out of the values in %s",
			valuePhrase(x.Vals), highLow(x.Max), x.KeyCol, x.ValCol)
	}
	return e.String() // unreachable for well-formed queries
}

// valuePhrase renders a value set as a flat phrase: literals and unions
// of literals come out as "Athens or London"; derived sets fall back to
// their full utterance.
func valuePhrase(e dcs.Expr) string {
	switch x := e.(type) {
	case *dcs.ValueLit:
		return literal(x.V)
	case *dcs.Union:
		return valuePhrase(x.L) + " or " + valuePhrase(x.R)
	default:
		return utter(e)
	}
}

// literal names a value in a sentence: its text, or — for the empty
// value, which would leave "rows where value of column City is" without
// an object and a bare literal without an utterance — the "" the query
// language spells it with.
func literal(v table.Value) string {
	if s := v.String(); s != "" {
		return s
	}
	return `""`
}

// stripRows removes a leading "rows " so conjunctions read "rows where …
// and also where …" (the Table 3 intersection template).
func stripRows(s string) string {
	return strings.TrimPrefix(s, "rows ")
}

func highLow(max bool) string {
	if max {
		return "highest"
	}
	return "lowest"
}

func cmpPhrase(op dcs.CmpOp) string {
	switch op {
	case dcs.Gt:
		return "more than"
	case dcs.Ge:
		return "at least"
	case dcs.Lt:
		return "less than"
	case dcs.Le:
		return "at most"
	case dcs.Ne:
		return "different from"
	default:
		return string(op)
	}
}

func aggregatePhrase(x *dcs.Aggregate) string {
	switch x.Fn {
	case dcs.Count:
		return "the number of " + utter(x.Arg)
	case dcs.Max:
		return "maximum of " + utter(x.Arg)
	case dcs.Min:
		return "minimum of " + utter(x.Arg)
	case dcs.Sum:
		return "the sum of " + utter(x.Arg)
	case dcs.Avg:
		return "the average of " + utter(x.Arg)
	}
	return string(x.Fn) + " of " + utter(x.Arg)
}

// subPhrase renders arithmetic differences. Two templates from Table 3
// apply: the value-difference form ("difference in values of column C
// between rows where …") and the occurrence-difference form ("in column
// C, what is the difference between rows with value v and rows with
// value u"); a generic form covers everything else.
func subPhrase(x *dcs.Sub) string {
	// Occurrence difference: sub(count(C.v), count(C.u)).
	if lc, lok := countOfJoin(x.L); lok {
		if rc, rok := countOfJoin(x.R); rok && strings.EqualFold(lc.Column, rc.Column) {
			return fmt.Sprintf("in column %s, what is the difference between rows with value %s and rows with value %s",
				lc.Column, valuePhrase(lc.Arg), valuePhrase(rc.Arg))
		}
	}
	// Value difference: sub(R[C1].C2.v, R[C1].C2.u).
	if lv, lok := x.L.(*dcs.ColumnValues); lok {
		if rv, rok := x.R.(*dcs.ColumnValues); rok && strings.EqualFold(lv.Column, rv.Column) {
			if lj, lj2 := lv.Records.(*dcs.Join); lj2 {
				if rj, rj2 := rv.Records.(*dcs.Join); rj2 && strings.EqualFold(lj.Column, rj.Column) {
					return fmt.Sprintf("difference in values of column %s between rows where value of column %s is %s and %s",
						lv.Column, lj.Column, valuePhrase(lj.Arg), valuePhrase(rj.Arg))
				}
			}
		}
	}
	return "the difference between " + utter(x.L) + " and " + utter(x.R)
}

// countOfJoin matches count(C.v).
func countOfJoin(e dcs.Expr) (*dcs.Join, bool) {
	a, ok := e.(*dcs.Aggregate)
	if !ok || a.Fn != dcs.Count {
		return nil, false
	}
	j, ok := a.Arg.(*dcs.Join)
	return j, ok
}
