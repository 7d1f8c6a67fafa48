// Package sqlgen translates lambda DCS queries into the SQL fragment of
// Table 10 of "Explaining Queries over Web Tables to Non-Experts"
// (ICDE 2019), positioning lambda DCS as an expressive fragment of SQL
// (Section 3.2, "Mapping to SQL"). It builds package sqlast's tree and
// prints it; minisql's interpreter runs it in the tests of this package,
// which keep the two executors equivalent.
//
// Two places deliberately tighten Table 10, which is written loosely:
//
//   - aggregates other than count use DISTINCT (lambda DCS unaries are
//     sets, so sum/avg aggregate distinct values), and
//   - the comparing-values translation restricts the outer SELECT to the
//     candidate values, matching the executor (Table 10 omits the outer
//     restriction, which would over-select when an unrelated record
//     shares the extreme key).
package sqlgen

import (
	"fmt"

	"nlexplain/internal/dcs"
	"nlexplain/internal/sqlast"
	"nlexplain/internal/table"
)

// TranslateError reports an expression outside the translatable fragment.
type TranslateError struct {
	Expr dcs.Expr
	Msg  string
}

// Error implements the error interface.
func (e *TranslateError) Error() string {
	return fmt.Sprintf("translating %s to SQL: %s", e.Expr, e.Msg)
}

func terr(e dcs.Expr, format string, args ...any) error {
	return &TranslateError{Expr: e, Msg: fmt.Sprintf(format, args...)}
}

// Translate maps a lambda DCS expression to an executable SQL query over
// the table named T (the paper's convention).
func Translate(e dcs.Expr) (sqlast.Query, error) {
	switch e.Type() {
	case dcs.RecordsType:
		pred, err := recordsPred(e)
		if err != nil {
			return nil, err
		}
		return &sqlast.Select{
			Items: []sqlast.SelectItem{{Star: true}},
			From:  "T",
			Where: pred,
			Limit: -1,
		}, nil
	case dcs.ValuesType:
		return valuesQuery(e, true)
	case dcs.ScalarType:
		return scalarQuery(e)
	}
	return nil, terr(e, "unknown type")
}

// maxSQL caps the SQL text TranslateSQL writes. Argmax over records and
// the comparing superlative print their operand twice, so k of them
// nested print the innermost 2^k times.
const maxSQL = 1 << 20

// TranslateSQL is Translate rendered to SQL text of at most maxSQL bytes.
func TranslateSQL(e dcs.Expr) (string, error) {
	q, err := Translate(e)
	if err != nil {
		return "", err
	}
	sql, ok := sqlast.FormatWithin(q, maxSQL)
	if !ok {
		return "", terr(e, "the SQL runs past %d bytes", maxSQL)
	}
	return sql, nil
}

func col(name string) *sqlast.ColRef  { return &sqlast.ColRef{Name: name} }
func lit(v table.Value) *sqlast.Lit   { return &sqlast.Lit{V: v} }
func index() *sqlast.ColRef           { return &sqlast.ColRef{Name: "Index"} }
func eq(l, r sqlast.Expr) sqlast.Expr { return &sqlast.BinOp{Op: "=", L: l, R: r} }

func and(l, r sqlast.Expr) sqlast.Expr {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	return &sqlast.BinOp{Op: "AND", L: l, R: r}
}

// selectExpr builds SELECT <item> FROM T WHERE <pred>.
func selectExpr(item sqlast.Expr, pred sqlast.Expr) *sqlast.Select {
	return &sqlast.Select{
		Items: []sqlast.SelectItem{{Expr: item}},
		From:  "T",
		Where: pred,
		Limit: -1,
	}
}

// recordsPred builds the WHERE predicate characterizing the records
// denoted by a RecordsType expression.
func recordsPred(e dcs.Expr) (sqlast.Expr, error) {
	switch x := e.(type) {
	case *dcs.AllRecords:
		return nil, nil

	case *dcs.Join:
		return membershipPred(col(x.Column), x.Arg)

	case *dcs.Compare:
		return &sqlast.BinOp{Op: string(x.Op), L: col(x.Column), R: lit(x.V)}, nil

	case *dcs.Intersect:
		l, err := recordsPred(x.L)
		if err != nil {
			return nil, err
		}
		r, err := recordsPred(x.R)
		if err != nil {
			return nil, err
		}
		// AND with an absent side (all records) keeps the other side.
		if l == nil {
			return r, nil
		}
		if r == nil {
			return l, nil
		}
		return &sqlast.BinOp{Op: "AND", L: l, R: r}, nil

	case *dcs.Union:
		l, err := recordsPred(x.L)
		if err != nil {
			return nil, err
		}
		r, err := recordsPred(x.R)
		if err != nil {
			return nil, err
		}
		if l == nil || r == nil {
			return nil, nil // union with all records is all records
		}
		return &sqlast.BinOp{Op: "OR", L: l, R: r}, nil

	case *dcs.Prev:
		// Table 10: Index IN (SELECT Index - 1 FROM T WHERE records).
		inner, err := recordsPred(x.Records)
		if err != nil {
			return nil, err
		}
		shift := &sqlast.BinOp{Op: "-", L: index(), R: lit(table.NumberValue(1))}
		return &sqlast.InSubq{L: index(), Q: selectExpr(shift, inner)}, nil

	case *dcs.Next:
		inner, err := recordsPred(x.Records)
		if err != nil {
			return nil, err
		}
		shift := &sqlast.BinOp{Op: "+", L: index(), R: lit(table.NumberValue(1))}
		return &sqlast.InSubq{L: index(), Q: selectExpr(shift, inner)}, nil

	case *dcs.ArgRecords:
		// Table 10: C = (SELECT MAX(C) FROM T [WHERE records]), joined
		// with the candidate restriction itself.
		inner, err := recordsPred(x.Records)
		if err != nil {
			return nil, err
		}
		fn := "MIN"
		if x.Max {
			fn = "MAX"
		}
		extreme := selectExpr(&sqlast.AggrCall{Fn: fn, Arg: col(x.Column)}, inner)
		return and(eq(col(x.Column), &sqlast.ScalarSubq{Q: extreme}), inner), nil
	}
	return nil, terr(e, "expression does not denote records")
}

// membershipPred builds "target ∈ values(arg)": an equality for a
// literal, a disjunction for a union of literals, and an IN-subquery for
// table-derived value sets.
func membershipPred(target sqlast.Expr, arg dcs.Expr) (sqlast.Expr, error) {
	switch v := arg.(type) {
	case *dcs.ValueLit:
		return eq(target, lit(v.V)), nil
	case *dcs.Union:
		l, err := membershipPred(target, v.L)
		if err == nil {
			if r, err2 := membershipPred(target, v.R); err2 == nil {
				return &sqlast.BinOp{Op: "OR", L: l, R: r}, nil
			}
		}
	}
	q, err := valuesQuery(arg, false)
	if err != nil {
		return nil, err
	}
	return &sqlast.InSubq{L: target, Q: q}, nil
}

// valuesQuery builds the SELECT producing the value set of a ValuesType
// expression. distinct controls deduplication at the top level (lambda
// DCS unaries are sets).
func valuesQuery(e dcs.Expr, distinct bool) (sqlast.Query, error) {
	switch x := e.(type) {
	case *dcs.ValueLit:
		// A constant single-row relation: SELECT 'v' FROM T LIMIT 1.
		s := selectExpr(lit(x.V), nil)
		s.Limit = 1
		return s, nil

	case *dcs.ColumnValues:
		// Table 10: SELECT C FROM (records) — concretely SELECT C FROM T
		// WHERE <records predicate>.
		pred, err := recordsPred(x.Records)
		if err != nil {
			return nil, err
		}
		s := selectExpr(col(x.Column), pred)
		s.Distinct = distinct
		return s, nil

	case *dcs.Union:
		l, err := valuesQuery(x.L, distinct)
		if err != nil {
			return nil, err
		}
		r, err := valuesQuery(x.R, distinct)
		if err != nil {
			return nil, err
		}
		return &sqlast.UnionQuery{L: l, R: r}, nil

	case *dcs.IndexSuperlative:
		// Table 10: SELECT C FROM T WHERE Index = (SELECT MAX(Index)
		// FROM (records)).
		pred, err := recordsPred(x.Records)
		if err != nil {
			return nil, err
		}
		fn := "MAX"
		if x.First {
			fn = "MIN"
		}
		extreme := selectExpr(&sqlast.AggrCall{Fn: fn, Arg: index()}, pred)
		return selectExpr(col(x.Column), eq(index(), &sqlast.ScalarSubq{Q: extreme})), nil

	case *dcs.MostFrequent:
		// Table 10: SELECT C FROM T WHERE C IN (vals) GROUP BY C
		// ORDER BY COUNT(Index) DESC LIMIT 1.
		var pred sqlast.Expr
		if x.Vals != nil {
			p, err := membershipPred(col(x.Column), x.Vals)
			if err != nil {
				return nil, err
			}
			pred = p
		}
		s := selectExpr(col(x.Column), pred)
		s.GroupBy = x.Column
		s.OrderBy = &sqlast.AggrCall{Fn: "COUNT", Arg: index()}
		s.Desc = true
		s.Limit = 1
		return s, nil

	case *dcs.CompareValues:
		// Table 10 (tightened): SELECT DISTINCT C2 FROM T WHERE C2 IN
		// (vals) AND C1 = (SELECT MAX(C1) FROM T WHERE C2 IN (vals)).
		candidates, err := membershipPred(col(x.ValCol), x.Vals)
		if err != nil {
			return nil, err
		}
		fn := "MIN"
		if x.Max {
			fn = "MAX"
		}
		extreme := selectExpr(&sqlast.AggrCall{Fn: fn, Arg: col(x.KeyCol)}, candidates)
		s := selectExpr(col(x.ValCol), and(candidates, eq(col(x.KeyCol), &sqlast.ScalarSubq{Q: extreme})))
		s.Distinct = true
		return s, nil
	}
	return nil, terr(e, "expression does not denote values")
}

// scalarQuery builds the SELECT producing a scalar expression.
func scalarQuery(e dcs.Expr) (sqlast.Query, error) {
	switch x := e.(type) {
	case *dcs.Aggregate:
		return aggregateQuery(x)
	case *dcs.Sub:
		l, err := subOperandQuery(x.L)
		if err != nil {
			return nil, err
		}
		r, err := subOperandQuery(x.R)
		if err != nil {
			return nil, err
		}
		return &sqlast.DiffQuery{L: l, R: r}, nil
	}
	return nil, terr(e, "expression does not denote a scalar")
}

func subOperandQuery(e dcs.Expr) (sqlast.Query, error) {
	if e.Type() == dcs.ScalarType {
		return scalarQuery(e)
	}
	return valuesQuery(e, true)
}

func aggregateQuery(x *dcs.Aggregate) (sqlast.Query, error) {
	fnName := map[dcs.AggrFn]string{
		dcs.Count: "COUNT", dcs.Min: "MIN", dcs.Max: "MAX", dcs.Sum: "SUM", dcs.Avg: "AVG",
	}[x.Fn]

	// count over records: SELECT COUNT(Index) FROM T WHERE pred.
	if x.Fn == dcs.Count && x.Arg.Type() == dcs.RecordsType {
		pred, err := recordsPred(x.Arg)
		if err != nil {
			return nil, err
		}
		return selectExpr(&sqlast.AggrCall{Fn: "COUNT", Arg: index()}, pred), nil
	}

	// Aggregates over column values: SELECT FN(DISTINCT C) FROM T WHERE
	// pred. DISTINCT mirrors the set semantics of lambda DCS unaries.
	if cv, ok := x.Arg.(*dcs.ColumnValues); ok {
		pred, err := recordsPred(cv.Records)
		if err != nil {
			return nil, err
		}
		return selectExpr(&sqlast.AggrCall{Fn: fnName, Distinct: true, Arg: col(cv.Column)}, pred), nil
	}

	return nil, terr(x, "aggregate over %T is outside the Table 10 SQL fragment", x.Arg)
}
