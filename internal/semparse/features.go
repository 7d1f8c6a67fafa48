package semparse

import (
	"fmt"
	"strings"

	"nlexplain/internal/dcs"
	"nlexplain/internal/table"
)

// Featurize extracts the feature vector φ(x, T, z) of Eq. 4: indicator
// and density features relating the question's lexical cues to the
// query's operators, columns, entities and result.
func Featurize(q *Question, t *table.Table, z dcs.Expr, res *dcs.Result) Features {
	f := make(Features, 24)
	f["bias"] = 1

	// Root operator identity.
	root := rootOp(z)
	f["root="+root] = 1

	// Trigger ↔ operator agreement. Both directions matter: a count
	// question without a count query, and a count query without a count
	// question, are both suspicious.
	hasOp := collectOps(z)
	agree := func(trig Trigger, op string) {
		switch {
		case q.Trigs[trig] && hasOp[op]:
			f[fmt.Sprintf("agree:%s", op)] = 1
		case q.Trigs[trig] && !hasOp[op]:
			f[fmt.Sprintf("miss:%s", op)] = 1
		case !q.Trigs[trig] && hasOp[op]:
			f[fmt.Sprintf("spur:%s", op)] = 1
		}
	}
	agree(TrigCount, "count")
	agree(TrigSum, "sum")
	agree(TrigAvg, "avg")
	agree(TrigDiff, "sub")
	agree(TrigMost, "mostfreq")
	agree(TrigBefore, "prev")
	agree(TrigAfter, "next")
	agree(TrigMore, "cmp>")
	agree(TrigLess, "cmp<")

	// Superlative direction agreement.
	maxish := q.Trigs[TrigMax] || q.Trigs[TrigLast]
	minish := q.Trigs[TrigMin] || q.Trigs[TrigFirst]
	switch {
	case maxish && hasOp["argmax"]:
		f["agree:argmax"] = 1
	case minish && hasOp["argmin"]:
		f["agree:argmin"] = 1
	case maxish && hasOp["argmin"]:
		f["flip:superlative"] = 1
	case minish && hasOp["argmax"]:
		f["flip:superlative"] = 1
	case (maxish || minish) && !hasOp["argmax"] && !hasOp["argmin"] && !hasOp["max"] && !hasOp["min"] && !hasOp["last"] && !hasOp["first"]:
		f["miss:superlative"] = 1
	case !(maxish || minish) && (hasOp["argmax"] || hasOp["argmin"]):
		f["spur:superlative"] = 1
	}
	if q.Trigs[TrigLast] && (hasOp["last"] || hasOp["max"]) {
		f["agree:last"] = 1
	}
	if q.Trigs[TrigFirst] && (hasOp["first"] || hasOp["min"]) {
		f["agree:first"] = 1
	}

	// Column mention coverage: fraction of the query's columns whose
	// header tokens occur in the question, and the count of unmentioned
	// columns (penalizes picking arbitrary columns).
	cols := dcs.Columns(z)
	mentioned := 0
	for _, c := range cols {
		if columnMentioned(q, c) {
			mentioned++
		}
	}
	if len(cols) > 0 {
		f["colCoverage"] = float64(mentioned) / float64(len(cols))
		f["colsUnmentioned"] = float64(len(cols) - mentioned)
	}

	// Entity grounding: every entity literal in the query should come
	// from the question.
	ents := entityLiterals(z)
	grounded := 0
	for _, v := range ents {
		if phraseInQuestion(q, v) {
			grounded++
		}
	}
	if len(ents) > 0 {
		f["entityCoverage"] = float64(grounded) / float64(len(ents))
		f["entitiesUngrounded"] = float64(len(ents) - grounded)
	}
	f["numEntities"] = float64(len(ents))

	// Size and emptiness.
	f["size"] = float64(dcs.Size(z))
	if res != nil && res.Empty() {
		f["emptyResult"] = 1
	}
	if res != nil && res.Type == dcs.RecordsType {
		f["recordsResult"] = 1 // final answers are values/scalars
	}

	// Wh-word / answer-type agreement.
	if res != nil {
		f[whTypeFeature(q.Wh, res)] = 1
	}
	return f
}

func whTypeFeature(wh string, res *dcs.Result) string {
	kind := "records"
	if res.Type == dcs.ScalarType {
		kind = "scalar"
	} else if res.Type == dcs.ValuesType {
		kind = "text"
		if len(res.Values) > 0 && res.Values[0].Kind != table.String {
			kind = "numeric"
		}
	}
	return "wh=" + wh + "&kind=" + kind
}

func columnMentioned(q *Question, col string) bool {
	for _, h := range Tokenize(col) {
		if !containsToken(q.Tokens, h) {
			return false
		}
	}
	return true
}

func phraseInQuestion(q *Question, v table.Value) bool {
	vt := Tokenize(v.String())
	if len(vt) == 0 {
		return false
	}
	return containsPhrase(q.Tokens, vt)
}

// rootOp names the outermost operator of a query.
func rootOp(z dcs.Expr) string {
	switch x := z.(type) {
	case *dcs.Aggregate:
		return string(x.Fn)
	case *dcs.Sub:
		return "sub"
	case *dcs.ColumnValues:
		return "project"
	case *dcs.IndexSuperlative:
		return "indexsup"
	case *dcs.MostFrequent:
		return "mostfreq"
	case *dcs.CompareValues:
		return "comparevalues"
	case *dcs.Join:
		return "join"
	case *dcs.Intersect:
		return "intersect"
	case *dcs.Union:
		return "union"
	case *dcs.Compare:
		return "compare"
	case *dcs.Prev:
		return "prev"
	case *dcs.Next:
		return "next"
	case *dcs.ArgRecords:
		return "argrecords"
	case *dcs.AllRecords:
		return "allrecords"
	case *dcs.ValueLit:
		return "literal"
	default:
		return strings.ToLower(fmt.Sprintf("%T", z))
	}
}

// collectOps flags the operator classes appearing anywhere in a query.
func collectOps(z dcs.Expr) map[string]bool {
	ops := make(map[string]bool)
	for _, sub := range dcs.Subqueries(z) {
		switch x := sub.(type) {
		case *dcs.Aggregate:
			ops[string(x.Fn)] = true
		case *dcs.Sub:
			ops["sub"] = true
		case *dcs.ArgRecords:
			if x.Max {
				ops["argmax"] = true
			} else {
				ops["argmin"] = true
			}
		case *dcs.IndexSuperlative:
			if x.First {
				ops["first"] = true
			} else {
				ops["last"] = true
			}
		case *dcs.MostFrequent:
			ops["mostfreq"] = true
		case *dcs.CompareValues:
			if x.Max {
				ops["argmax"] = true
			} else {
				ops["argmin"] = true
			}
			ops["comparevalues"] = true
		case *dcs.Prev:
			ops["prev"] = true
		case *dcs.Next:
			ops["next"] = true
		case *dcs.Compare:
			switch x.Op {
			case dcs.Gt, dcs.Ge:
				ops["cmp>"] = true
			case dcs.Lt, dcs.Le:
				ops["cmp<"] = true
			}
		case *dcs.Intersect:
			ops["intersect"] = true
		case *dcs.Union:
			ops["union"] = true
		}
	}
	return ops
}
