// Package dcs implements lambda dependency-based compositional semantics
// (lambda DCS) over single web tables, the formal query language of
// Section 3.2 of "Explaining Queries over Web Tables to Non-Experts"
// (ICDE 2019). It provides the AST, a parser for the paper's surface
// syntax (e.g. max(R[Year].Country.Greece)), a type checker and an
// executor. The provenance, SQL-translation and utterance packages all
// walk this AST.
package dcs

import (
	"fmt"
	"strings"
	"unicode"

	"nlexplain/internal/table"
)

// Type is the result type of a lambda DCS expression: a set of table
// records, a set of values, or a single scalar (the result of an
// aggregate or arithmetic operation).
type Type int

const (
	// RecordsType means the expression denotes a set of record indices.
	RecordsType Type = iota
	// ValuesType means the expression denotes a set of cell values.
	ValuesType
	// ScalarType means the expression denotes one number.
	ScalarType
)

// String names the type.
func (t Type) String() string {
	switch t {
	case RecordsType:
		return "records"
	case ValuesType:
		return "values"
	case ScalarType:
		return "scalar"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// AggrFn enumerates the aggregate functions of the language
// ({min, max, avg, sum, count} in Section 3.2).
type AggrFn string

// Aggregate function names, as written in lambda DCS formulas.
const (
	Count AggrFn = "count"
	Min   AggrFn = "min"
	Max   AggrFn = "max"
	Sum   AggrFn = "sum"
	Avg   AggrFn = "avg"
)

// CmpOp is a comparison operator used by comparison joins
// ("values of column Games that are more than 4", Figure 4).
type CmpOp string

// Comparison operators.
const (
	Lt CmpOp = "<"
	Le CmpOp = "<="
	Gt CmpOp = ">"
	Ge CmpOp = ">="
	Ne CmpOp = "!="
)

// Expr is a lambda DCS expression. Implementations are immutable; the
// compositional structure (QSUB in Definition 4.1) is exposed through
// Children.
type Expr interface {
	// String renders the expression in the paper's surface syntax.
	String() string
	// Type is the expression's static result type.
	Type() Type
	// Children returns the direct sub-expressions, enabling the generic
	// recursion of Algorithm 1 (Highlight) and of QSUB.
	Children() []Expr
}

// quoteCol renders a column name for the surface syntax, quoting one
// that would not lex back as itself, as one identifier (e.g. "Open
// Cup", "2004"), or that the parser reads as a keyword.
func quoteCol(name string) string {
	if bareIdent(name) && name != "Prev" && name != "Index" && name != "Record" {
		return name
	}
	return `"` + name + `"`
}

// bareIdent reports whether s lexes as one identifier spelling s: ident
// runes only, the first not one that starts a number or a lambda.
func bareIdent(s string) bool {
	for i, r := range s {
		if !isIdentRune(r) || i == 0 && (r == '-' || r == 'λ' || unicode.IsDigit(r)) {
			return false
		}
	}
	return s != ""
}

// ValueLit is a unary denoting a constant set of one value — the
// simplest unary of the language, e.g. the entity Greece.
type ValueLit struct {
	V table.Value
}

// String renders the literal, quoting strings that contain syntax
// characters so parsing round-trips.
func (e *ValueLit) String() string { return quoteLit(e.V) }

// quoteLit renders v bare where the parser reads the bare text back as
// v: a string that lexes as one identifier and is not the keyword
// Record, and a number the lexer reads whole (no exponent, NaN or
// infinity). Anything else is quoted, and the parser reads a quoted
// literal with table.ParseValue, as the cell it would be.
func quoteLit(v table.Value) string {
	s := v.String()
	switch v.Kind {
	case table.String:
		if bareIdent(s) && s != "Record" {
			return s
		}
	case table.Number:
		if !strings.ContainsAny(s, "e+NI") {
			return s
		}
	}
	return `"` + s + `"`
}

// Type of a literal is a value set.
func (e *ValueLit) Type() Type { return ValuesType }

// Children of a literal is empty: it is atomic.
func (e *ValueLit) Children() []Expr { return nil }

// AllRecords is the unary Record: the set of all table records.
type AllRecords struct{}

// String renders the Record unary.
func (e *AllRecords) String() string { return "Record" }

// Type of AllRecords is a record set.
func (e *AllRecords) Type() Type { return RecordsType }

// Children is empty: AllRecords is atomic.
func (e *AllRecords) Children() []Expr { return nil }

// Join is the selection C.v / C.records of Section 3.2: the set of
// records whose value in column Column is a member of the value set
// denoted by Arg (e.g. Country.Greece).
type Join struct {
	Column string
	Arg    Expr
}

// String renders Column.Arg.
func (e *Join) String() string { return Render(e, e.Arg.String()) }

// Type of a join is a record set.
func (e *Join) Type() Type { return RecordsType }

// Children returns the joined value set.
func (e *Join) Children() []Expr { return []Expr{e.Arg} }

// ColumnValues is the reverse join R[C].records: the values of column
// Column in the records denoted by Records (e.g. R[Year].City.Athens).
type ColumnValues struct {
	Column  string
	Records Expr
}

// String renders R[Column].Records.
func (e *ColumnValues) String() string { return Render(e, e.Records.String()) }

// Type of a reverse join is a value set.
func (e *ColumnValues) Type() Type { return ValuesType }

// Children returns the record set.
func (e *ColumnValues) Children() []Expr { return []Expr{e.Records} }

// Prev denotes the records directly above the records of the argument
// (the Prev operator of Section 3.2); Next (R[Prev]) the records
// directly below.
type Prev struct {
	Records Expr
}

// String renders Prev.Records.
func (e *Prev) String() string { return Render(e, e.Records.String()) }

// Type of Prev is a record set.
func (e *Prev) Type() Type { return RecordsType }

// Children returns the argument record set.
func (e *Prev) Children() []Expr { return []Expr{e.Records} }

// Next is R[Prev].records: the records directly below the argument's.
type Next struct {
	Records Expr
}

// String renders R[Prev].Records.
func (e *Next) String() string { return Render(e, e.Records.String()) }

// Type of Next is a record set.
func (e *Next) Type() Type { return RecordsType }

// Children returns the argument record set.
func (e *Next) Children() []Expr { return []Expr{e.Records} }

// Intersect is set intersection u of two record sets
// (City.London u Country.UK).
type Intersect struct {
	L, R Expr
}

// String renders (L u R) using the paper's ⊓ spelled "u".
func (e *Intersect) String() string { return Render(e, e.L.String(), e.R.String()) }

// Type of an intersection is a record set.
func (e *Intersect) Type() Type { return RecordsType }

// Children returns both operands.
func (e *Intersect) Children() []Expr { return []Expr{e.L, e.R} }

// Union is set union of two sets of the same type
// (Country.Greece or-ed with Country.China, or a union of value
// literals such as Athens ⊔ London).
type Union struct {
	L, R Expr
}

// String renders (L or R).
func (e *Union) String() string { return Render(e, e.L.String(), e.R.String()) }

// Type of a union follows its operands (checked by Check).
func (e *Union) Type() Type { return e.L.Type() }

// Children returns both operands.
func (e *Union) Children() []Expr { return []Expr{e.L, e.R} }

// Aggregate applies an aggregate function to a unary and returns a
// scalar: count(City.Athens), sum(R[Year].City.Athens), …
type Aggregate struct {
	Fn  AggrFn
	Arg Expr
}

// String renders fn(arg).
func (e *Aggregate) String() string { return Render(e, e.Arg.String()) }

// Type of an aggregate is scalar.
func (e *Aggregate) Type() Type { return ScalarType }

// Children returns the aggregated unary.
func (e *Aggregate) Children() []Expr { return []Expr{e.Arg} }

// Sub is the arithmetic difference of two scalars or two singleton value
// sets: sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga).
type Sub struct {
	L, R Expr
}

// String renders sub(L, R).
func (e *Sub) String() string { return Render(e, e.L.String(), e.R.String()) }

// Type of a difference is scalar.
func (e *Sub) Type() Type { return ScalarType }

// Children returns both operands.
func (e *Sub) Children() []Expr { return []Expr{e.L, e.R} }

// ArgRecords is the records-superlative argmax(records, λx[C.x]) /
// argmin: the records with the highest (lowest) value in column Column
// among the argument records ("rows that have the highest value in
// column Year").
type ArgRecords struct {
	Max     bool
	Records Expr
	Column  string
}

// String renders argmax(records, Column) / argmin(…).
func (e *ArgRecords) String() string { return Render(e, e.Records.String()) }

// Type of a records superlative is a record set.
func (e *ArgRecords) Type() Type { return RecordsType }

// Children returns the candidate record set.
func (e *ArgRecords) Children() []Expr { return []Expr{e.Records} }

// IndexSuperlative is R[C].argmax(records, Index): the value of column
// Column in the record with the highest (first=false) or lowest
// (first=true) index among the argument records ("where it is the last
// row").
type IndexSuperlative struct {
	Column  string
	Records Expr
	First   bool
}

// String renders R[Column].argmax(records, Index) (or argmin for First).
func (e *IndexSuperlative) String() string { return Render(e, e.Records.String()) }

// Type of an index superlative is a value set.
func (e *IndexSuperlative) Type() Type { return ValuesType }

// Children returns the candidate record set.
func (e *IndexSuperlative) Children() []Expr { return []Expr{e.Records} }

// MostFrequent is argmax(vals, R[λx.count(C.x)]): among the candidate
// values, the one appearing the most in column Column ("the value of
// Athens or London that appears the most in column City"). With Vals ==
// nil the candidates are all values of the column (Figure 22).
type MostFrequent struct {
	Vals   Expr // nil means all values of Column
	Column string
}

// String renders argmax(vals, R[λx.count(Column.x)]).
func (e *MostFrequent) String() string {
	if e.Vals == nil {
		return Render(e)
	}
	return Render(e, e.Vals.String())
}

// Type of a most-frequent superlative is a value set.
func (e *MostFrequent) Type() Type { return ValuesType }

// Children returns the candidate value set, when present.
func (e *MostFrequent) Children() []Expr {
	if e.Vals == nil {
		return nil
	}
	return []Expr{e.Vals}
}

// CompareValues is argmax(vals, R[λx.R[C1].C2.x]) (and argmin): among
// candidate values of column ValCol, the one whose record has the
// highest (lowest) value in column KeyCol ("between London or Beijing
// who has the highest value of column Year").
type CompareValues struct {
	Max    bool
	Vals   Expr
	KeyCol string // C1, the column compared on
	ValCol string // C2, the column the candidate values live in
}

// String renders argmax(vals, R[λx.R[KeyCol].ValCol.x]).
func (e *CompareValues) String() string { return Render(e, e.Vals.String()) }

// Type of a comparing superlative is a value set.
func (e *CompareValues) Type() Type { return ValuesType }

// Children returns the candidate value set.
func (e *CompareValues) Children() []Expr { return []Expr{e.Vals} }

// Compare is a comparison join: the records whose (numeric or date)
// value in Column satisfies Op against the literal V, e.g. Games>4
// ("rows where values of column Games are more than 4", Figure 4).
type Compare struct {
	Column string
	Op     CmpOp
	V      table.Value
}

// String renders Column op literal.
func (e *Compare) String() string { return Render(e) }

// Type of a comparison join is a record set.
func (e *Compare) Type() Type { return RecordsType }

// Children of a comparison is empty: it is atomic.
func (e *Compare) Children() []Expr { return nil }

// Render writes the node e in the paper's surface syntax around the
// texts of its children, given in Children order. Every String above is
// Render over the children's own String; a caller that has rendered a
// shared sub-expression once hands that text to each of its parents
// instead of rendering it again under every one.
func Render(e Expr, children ...string) string {
	extreme := func(max bool) string {
		if max {
			return "argmax"
		}
		return "argmin"
	}
	switch x := e.(type) {
	case *ValueLit:
		return quoteLit(x.V)
	case *AllRecords:
		return "Record"
	case *Join:
		return quoteCol(x.Column) + "." + children[0]
	case *ColumnValues:
		return "R[" + quoteCol(x.Column) + "]." + children[0]
	case *Prev:
		return "Prev." + children[0]
	case *Next:
		return "R[Prev]." + children[0]
	case *Intersect:
		return "(" + children[0] + " u " + children[1] + ")"
	case *Union:
		return "(" + children[0] + " or " + children[1] + ")"
	case *Aggregate:
		return string(x.Fn) + "(" + children[0] + ")"
	case *Sub:
		return "sub(" + children[0] + ", " + children[1] + ")"
	case *ArgRecords:
		return extreme(x.Max) + "(" + children[0] + ", " + quoteCol(x.Column) + ")"
	case *IndexSuperlative:
		return "R[" + quoteCol(x.Column) + "]." + extreme(!x.First) + "(" + children[0] + ", Index)"
	case *MostFrequent:
		vals := "Values[" + quoteCol(x.Column) + "]"
		if x.Vals != nil {
			vals = children[0]
		}
		return "argmax(" + vals + ", R[λx.count(" + quoteCol(x.Column) + ".x)])"
	case *CompareValues:
		return extreme(x.Max) + "(" + children[0] + ", R[λx.R[" + quoteCol(x.KeyCol) + "]." + quoteCol(x.ValCol) + ".x])"
	case *Compare:
		return quoteCol(x.Column) + string(x.Op) + quoteLit(x.V)
	default:
		return e.String()
	}
}

// Columns returns, in first-mention order, the distinct column names an
// expression projects or aggregates on — the set C ∈ Q of Definition 4.1
// used by the PC provenance function.
func Columns(e Expr) []string {
	var out []string
	seen := make(map[string]bool)
	add := func(c string) {
		k := strings.ToLower(c)
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *Join:
			add(x.Column)
		case *ColumnValues:
			add(x.Column)
		case *ArgRecords:
			add(x.Column)
		case *IndexSuperlative:
			add(x.Column)
		case *MostFrequent:
			add(x.Column)
		case *CompareValues:
			add(x.KeyCol)
			add(x.ValCol)
		case *Compare:
			add(x.Column)
		}
		for _, c := range e.Children() {
			walk(c)
		}
	}
	walk(e)
	return out
}

// Subqueries returns QSUB of Definition 4.1: every sub-expression of e,
// including e itself, in pre-order.
func Subqueries(e Expr) []Expr {
	out := []Expr{e}
	for _, c := range e.Children() {
		out = append(out, Subqueries(c)...)
	}
	return out
}

// Size returns the number of AST nodes, a simple complexity measure (the
// semantic parser's size feature counts the same nodes).
func Size(e Expr) int { return len(Subqueries(e)) }
