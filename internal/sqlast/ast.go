// Package sqlast holds the SQL fragment of Table 10 as a syntax tree,
// its reserved words and Format, its printer. sqlgen builds the tree
// and minisql parses and runs it; a program that only shows SQL links
// this package alone.
package sqlast

import (
	"math"
	"strconv"
	"strings"

	"nlexplain/internal/table"
)

// Query is a top-level SQL statement: a SELECT, a UNION of two queries,
// or the difference of two scalar queries.
type Query interface{ sqlQuery() }

// Select is a single-table SELECT statement.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     string
	Where    Expr // nil when absent
	GroupBy  string
	OrderBy  Expr // nil when absent
	Desc     bool
	Limit    int // -1 when absent
}

func (*Select) sqlQuery() {}

// UnionQuery is the set union (deduplicating, like SQL UNION) of two
// queries with compatible shapes.
type UnionQuery struct {
	L, R Query
}

func (*UnionQuery) sqlQuery() {}

// DiffQuery is "(scalar query) - (scalar query)", the Table 10 form for
// arithmetic difference.
type DiffQuery struct {
	L, R Query
}

func (*DiffQuery) sqlQuery() {}

// SelectItem is one projection: '*' or an expression.
type SelectItem struct {
	Star bool
	Expr Expr
}

// Expr is a SQL expression usable in projections, predicates and ORDER BY.
type Expr interface{ sqlExpr() }

// ColRef references a column by name; "Index" is the implicit record
// index attribute of the paper's data model.
type ColRef struct{ Name string }

func (*ColRef) sqlExpr() {}

// Lit is a literal value.
type Lit struct{ V table.Value }

func (*Lit) sqlExpr() {}

// BinOp is a binary operation: comparisons (=, !=, <, <=, >, >=),
// boolean AND/OR, or arithmetic +/-.
type BinOp struct {
	Op   string
	L, R Expr
}

func (*BinOp) sqlExpr() {}

// NotExpr negates a predicate.
type NotExpr struct{ Arg Expr }

func (*NotExpr) sqlExpr() {}

// InSubq is "expr IN (query)".
type InSubq struct {
	L Expr
	Q Query
}

func (*InSubq) sqlExpr() {}

// ScalarSubq is a parenthesized query used as a scalar.
type ScalarSubq struct{ Q Query }

func (*ScalarSubq) sqlExpr() {}

// AggrCall is COUNT/MIN/MAX/SUM/AVG, with optional DISTINCT, over an
// expression or '*'.
type AggrCall struct {
	Fn       string // upper-case
	Distinct bool
	Star     bool
	Arg      Expr
}

func (*AggrCall) sqlExpr() {}

// Keywords is the fragment's reserved-word set, upper-cased: the lexer
// reads these words as keywords, and Format quotes an identifier that
// spells one.
var Keywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "FROM": true, "WHERE": true,
	"AND": true, "OR": true, "NOT": true, "IN": true, "UNION": true,
	"GROUP": true, "BY": true, "ORDER": true, "ASC": true, "DESC": true,
	"LIMIT": true, "AS": true, "COUNT": true, "MIN": true, "MAX": true,
	"SUM": true, "AVG": true,
}

// Format renders a query back to SQL text (used in error messages and
// for documenting generated translations).
func Format(q Query) string {
	s, _ := FormatWithin(q, math.MaxInt)
	return s
}

// FormatWithin is Format stopping once the text passes limit bytes, and
// reports whether it did not. A subquery shared by several parents is
// printed under each, so the text can be far longer than the tree.
func FormatWithin(q Query, limit int) (string, bool) {
	b := &printer{limit: limit}
	formatQuery(b, q)
	return b.String(), b.Len() <= limit
}

// FormatExpr renders an expression back to SQL text, as Format writes
// it inside a query (the column label of a projected expression).
func FormatExpr(e Expr) string {
	b := &printer{limit: math.MaxInt}
	formatExpr(b, e)
	return b.String()
}

// printer is the text formatQuery and formatExpr write, which they stop
// adding to once it holds more than limit bytes.
type printer struct {
	strings.Builder
	limit int
}

func formatQuery(b *printer, q Query) {
	if b.Len() > b.limit {
		return
	}
	switch x := q.(type) {
	case *Select:
		b.WriteString("SELECT ")
		if x.Distinct {
			b.WriteString("DISTINCT ")
		}
		for i, it := range x.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			if it.Star {
				b.WriteString("*")
			} else {
				formatExpr(b, it.Expr)
			}
		}
		b.WriteString(" FROM ")
		b.WriteString(x.From)
		if x.Where != nil {
			b.WriteString(" WHERE ")
			formatExpr(b, x.Where)
		}
		if x.GroupBy != "" {
			b.WriteString(" GROUP BY ")
			b.WriteString(quoteIdent(x.GroupBy))
		}
		if x.OrderBy != nil {
			b.WriteString(" ORDER BY ")
			formatExpr(b, x.OrderBy)
			if x.Desc {
				b.WriteString(" DESC")
			}
		}
		if x.Limit >= 0 {
			b.WriteString(" LIMIT ")
			b.WriteString(strconv.Itoa(x.Limit))
		}
	case *UnionQuery:
		formatQuery(b, x.L)
		b.WriteString(" UNION ")
		formatQuery(b, x.R)
	case *DiffQuery:
		b.WriteString("(")
		formatQuery(b, x.L)
		b.WriteString(") - (")
		formatQuery(b, x.R)
		b.WriteString(")")
	}
}

func quoteIdent(name string) string {
	if strings.ContainsAny(name, " ()-,.*'") || Keywords[strings.ToUpper(name)] {
		return `"` + name + `"`
	}
	return name
}

func formatExpr(b *printer, e Expr) {
	if b.Len() > b.limit {
		return
	}
	switch x := e.(type) {
	case *ColRef:
		b.WriteString(quoteIdent(x.Name))
	case *Lit:
		if x.V.Kind == table.Number {
			b.WriteString(x.V.String())
		} else {
			b.WriteString("'" + strings.ReplaceAll(x.V.String(), "'", "''") + "'")
		}
	case *BinOp:
		// Parenthesize boolean sub-connectives so the printed SQL
		// re-parses with the AST's grouping (AND binds tighter than OR).
		wrap := func(e Expr) {
			if inner, ok := e.(*BinOp); ok && (inner.Op == "AND" || inner.Op == "OR") && inner.Op != x.Op {
				b.WriteString("(")
				formatExpr(b, e)
				b.WriteString(")")
				return
			}
			formatExpr(b, e)
		}
		if x.Op == "AND" || x.Op == "OR" {
			wrap(x.L)
			b.WriteString(" " + x.Op + " ")
			wrap(x.R)
			return
		}
		formatExpr(b, x.L)
		b.WriteString(" " + x.Op + " ")
		formatExpr(b, x.R)
	case *NotExpr:
		b.WriteString("NOT (")
		formatExpr(b, x.Arg)
		b.WriteString(")")
	case *InSubq:
		formatExpr(b, x.L)
		b.WriteString(" IN (")
		formatQuery(b, x.Q)
		b.WriteString(")")
	case *ScalarSubq:
		b.WriteString("(")
		formatQuery(b, x.Q)
		b.WriteString(")")
	case *AggrCall:
		b.WriteString(x.Fn + "(")
		if x.Distinct {
			b.WriteString("DISTINCT ")
		}
		if x.Star {
			b.WriteString("*")
		} else {
			formatExpr(b, x.Arg)
		}
		b.WriteString(")")
	}
}
