package dcs

import (
	"fmt"
	"strconv"
	"unicode/utf8"

	"nlexplain/internal/table"
)

// Parse reads a lambda DCS expression in the paper's surface syntax.
// Examples of accepted input (all of which String() round-trips):
//
//	Country.Greece
//	R[Year].Country.Greece
//	max(R[Year].Country.Greece)
//	sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)
//	(City.London u Country.UK)
//	(Country.Greece or Country.China)
//	R[City].Prev.City.London
//	R[City].R[Prev].City.Athens
//	argmax(Record, Year)
//	R[Year].argmax(City.Athens, Index)
//	argmax((Athens or London), R[λx.count(City.x)])
//	argmax((London or Beijing), R[λx.R[Year].City.x])
//	Games>4
//
// A query longer than MaxQueryBytes is refused with a *LengthError
// before it is read, and one nested deeper than MaxDepth with a
// *DepthError.
func Parse(src string) (Expr, error) {
	if len(src) > MaxQueryBytes {
		return nil, &LengthError{Limit: MaxQueryBytes}
	}
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected trailing input %s", p.peek())
	}
	return e, nil
}

// MaxDepth caps how deeply a query nests: Parse refuses a deeper one
// before anything walks its tree, so no walk (check, compile, render,
// utterance, provenance) recurses further. Each operator application,
// join step and parenthesis is a level; the deepest query semparse or
// qrand generates is 7 levels deep.
const MaxDepth = 100

// DepthError is Parse's refusal of a query nested deeper than Limit.
type DepthError struct{ Limit int }

func (e *DepthError) Error() string {
	return fmt.Sprintf("lambda DCS parse: query nested deeper than %d levels", e.Limit)
}

// MaxQueryBytes caps a query's text, so what the lexer holds stays
// small whatever a request carries. The longest query semparse, qrand
// or a fixture makes is 195 bytes.
const MaxQueryBytes = 4 << 10

// LengthError is Parse's refusal of a query longer than Limit bytes.
type LengthError struct{ Limit int }

func (e *LengthError) Error() string {
	return fmt.Sprintf("lambda DCS parse: query longer than %d bytes", e.Limit)
}

// MaxQuoted caps how much of a query, or of one of its nodes, an error
// message quotes: the reason follows the quote, and a caller that cuts
// long messages (the server keeps 1 KiB) would otherwise cut the reason.
const MaxQuoted = 128

// Clip cuts s to its first MaxQuoted bytes, on a rune boundary, and
// marks the cut with "…"; a shorter s is returned as it is.
func Clip(s string) string {
	if len(s) <= MaxQuoted {
		return s
	}
	n := MaxQuoted
	for !utf8.RuneStart(s[n]) {
		n--
	}
	return s[:n] + "…"
}

// MustParse is Parse, panicking on error; intended for fixtures and tests.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

type parser struct {
	toks []token
	pos  int
	// depth is how many levels deep the parse is; MaxDepth caps it.
	depth int
}

func (p *parser) peek() token  { return p.toks[p.pos] }
func (p *parser) peek2() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("lambda DCS parse: "+format, args...)
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, p.errf("expected %s, got %s", what, t)
	}
	return t, nil
}

var aggrNames = map[string]AggrFn{
	"count": Count, "min": Min, "max": Max, "sum": Sum, "avg": Avg,
}

// parseExpr reads one expression, a level deeper than its caller.
func (p *parser) parseExpr() (Expr, error) {
	if p.depth++; p.depth > MaxDepth {
		return nil, &DepthError{Limit: MaxDepth}
	}
	defer func() { p.depth-- }()
	t := p.peek()
	switch {
	case t.kind == tokLParen:
		return p.parseParen()
	case t.kind == tokIdent:
		if fn, ok := aggrNames[t.text]; ok && p.peek2().kind == tokLParen {
			return p.parseAggregate(fn)
		}
		switch t.text {
		case "sub":
			if p.peek2().kind == tokLParen {
				return p.parseSub()
			}
		case "argmax", "argmin":
			if p.peek2().kind == tokLParen {
				return p.parseSuperlative(t.text == "argmax", "")
			}
		}
		return p.parsePath()
	case t.kind == tokNumber || t.kind == tokString:
		return p.parsePath()
	default:
		return nil, p.errf("unexpected %s", t)
	}
}

// parseParen reads "(expr)" or the binary forms "(a u b)" / "(a or b)".
func (p *parser) parseParen() (Expr, error) {
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return nil, err
	}
	l, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokIdent && (t.text == "u" || t.text == "or") {
		p.next()
		r, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		if t.text == "u" {
			return &Intersect{L: l, R: r}, nil
		}
		return &Union{L: l, R: r}, nil
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	return l, nil
}

func (p *parser) parseAggregate(fn AggrFn) (Expr, error) {
	p.next() // function name
	p.next() // '('
	arg, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	return &Aggregate{Fn: fn, Arg: arg}, nil
}

func (p *parser) parseSub() (Expr, error) {
	p.next() // sub
	p.next() // '('
	l, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokComma, "','"); err != nil {
		return nil, err
	}
	r, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	return &Sub{L: l, R: r}, nil
}

// parseSuperlative reads argmax/argmin applications:
//
//	argmax(records, Column)                 records superlative
//	argmax(vals, R[λx.count(C.x)])          most-frequent value
//	argmax(Values[C], R[λx.count(C.x)])     most-frequent over a whole column
//	argmax(vals, R[λx.R[C1].C2.x])          comparing values
//
// After "R[indexCol]." it also reads argmax(records, Index), the index
// superlative, deciding on the second argument so that the first is
// read once: trying one form and reading again as the other doubles the
// work at every level a superlative nests.
func (p *parser) parseSuperlative(max bool, indexCol string) (Expr, error) {
	p.next() // argmax / argmin
	p.next() // '('

	// First argument: either a normal expression or Values[C].
	var first Expr
	allOfColumn := ""
	if t := p.peek(); t.kind == tokIdent && t.text == "Values" && p.peek2().kind == tokLBrack {
		p.next()
		p.next()
		col, err := p.parseColumnName()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBrack, "']'"); err != nil {
			return nil, err
		}
		allOfColumn = col
	} else {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		first = e
	}
	if _, err := p.expect(tokComma, "','"); err != nil {
		return nil, err
	}
	if t := p.peek(); indexCol != "" && first != nil && t.kind == tokIdent && t.text == "Index" {
		p.next()
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return &IndexSuperlative{Column: indexCol, Records: first, First: !max}, nil
	}

	// Second argument.
	if t := p.peek(); t.kind == tokIdent && t.text == "R" && p.peek2().kind == tokLBrack {
		p.next()
		p.next()
		if lam := p.peek(); lam.kind == tokIdent && lam.text == "λx" {
			return p.parseLambdaSuperlative(max, first, allOfColumn)
		}
		return nil, p.errf("expected λx inside R[...] superlative key, got %s", p.peek())
	}
	col, err := p.parseColumnName()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return nil, err
	}
	if allOfColumn != "" {
		return nil, p.errf("Values[%s] requires a λ-form key", allOfColumn)
	}
	return &ArgRecords{Max: max, Records: first, Column: col}, nil
}

// parseLambdaSuperlative continues after "R[" when the key is a λ-term:
//
//	λx.count(C.x)]    — most-frequent
//	λx.R[C1].C2.x]    — comparing values
func (p *parser) parseLambdaSuperlative(max bool, vals Expr, allOfColumn string) (Expr, error) {
	p.next() // λx
	if _, err := p.expect(tokDot, "'.'"); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokIdent && t.text == "count" {
		p.next()
		if _, err := p.expect(tokLParen, "'('"); err != nil {
			return nil, err
		}
		col, err := p.parseColumnName()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokDot, "'.'"); err != nil {
			return nil, err
		}
		if x, err := p.expect(tokIdent, "'x'"); err != nil || x.text != "x" {
			return nil, p.errf("expected bound variable x in λ-term")
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBrack, "']'"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		if !max {
			return nil, p.errf("argmin most-frequent is not part of the language")
		}
		if allOfColumn != "" {
			if allOfColumn != col {
				return nil, p.errf("Values[%s] does not match counted column %s", allOfColumn, col)
			}
			return &MostFrequent{Column: col}, nil
		}
		return &MostFrequent{Vals: vals, Column: col}, nil
	}
	if t.kind == tokIdent && t.text == "R" {
		p.next()
		if _, err := p.expect(tokLBrack, "'['"); err != nil {
			return nil, err
		}
		keyCol, err := p.parseColumnName()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBrack, "']'"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokDot, "'.'"); err != nil {
			return nil, err
		}
		valCol, err := p.parseColumnName()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokDot, "'.'"); err != nil {
			return nil, err
		}
		if x, err := p.expect(tokIdent, "'x'"); err != nil || x.text != "x" {
			return nil, p.errf("expected bound variable x in λ-term")
		}
		if _, err := p.expect(tokRBrack, "']'"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		if vals == nil {
			return nil, p.errf("comparing superlative requires explicit candidate values")
		}
		return &CompareValues{Max: max, Vals: vals, KeyCol: keyCol, ValCol: valCol}, nil
	}
	return nil, p.errf("unsupported λ-term starting with %s", t)
}

// parseColumnName reads a column reference: a bare identifier or a quoted
// string (for headers containing spaces, e.g. "Open Cup").
func (p *parser) parseColumnName() (string, error) {
	t := p.next()
	if t.kind != tokIdent && t.kind != tokString {
		return "", p.errf("expected column name, got %s", t)
	}
	return t.text, nil
}

// parsePath reads dotted compositions:
//
//	Country.Greece                (join)
//	R[Year].Country.Greece        (reverse join)
//	Prev.City.Athens              (previous records)
//	R[Prev].City.Athens           (following records)
//	R[Year].argmax(recs, Index)   (index superlative)
//	Record                        (all records)
//	Games>4                       (comparison join)
//	Greece / 2004 / "New Caledonia" (value literal)
func (p *parser) parsePath() (Expr, error) {
	t := p.peek()

	// R[...] prefix.
	if t.kind == tokIdent && t.text == "R" && p.peek2().kind == tokLBrack {
		p.next()
		p.next()
		col, err := p.parseColumnName()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRBrack, "']'"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokDot, "'.' after R[...]"); err != nil {
			return nil, err
		}
		if col == "Prev" {
			rest, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &Next{Records: rest}, nil
		}
		// R[C].argmax(recs, Index) / argmin — index superlative.
		if nt := p.peek(); nt.kind == tokIdent && (nt.text == "argmax" || nt.text == "argmin") && p.peek2().kind == tokLParen {
			e, err := p.parseSuperlative(nt.text == "argmax", col)
			if _, ok := e.(*IndexSuperlative); ok || err != nil {
				return e, err
			}
			return &ColumnValues{Column: col, Records: e}, nil
		}
		rest, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ColumnValues{Column: col, Records: rest}, nil
	}

	// Prev prefix.
	if t.kind == tokIdent && t.text == "Prev" && p.peek2().kind == tokDot {
		p.next()
		p.next()
		rest, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &Prev{Records: rest}, nil
	}

	// Record literal.
	if t.kind == tokIdent && t.text == "Record" {
		p.next()
		return &AllRecords{}, nil
	}

	// Identifier or string: column (if followed by '.' or a comparison) or
	// a value literal.
	if t.kind == tokIdent || t.kind == tokString {
		switch p.peek2().kind {
		case tokDot:
			p.next()
			p.next()
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return &Join{Column: t.text, Arg: arg}, nil
		case tokOp:
			p.next()
			op := p.next()
			lit, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			return &Compare{Column: t.text, Op: CmpOp(op.text), V: lit}, nil
		default:
			p.next()
			if t.kind == tokString {
				return &ValueLit{V: table.ParseValue(t.text)}, nil
			}
			return &ValueLit{V: table.StringValue(t.text)}, nil
		}
	}

	if t.kind == tokNumber {
		p.next()
		n, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad number %q: %v", t.text, err)
		}
		return &ValueLit{V: table.NumberValue(n)}, nil
	}

	return nil, p.errf("unexpected %s", t)
}

// parseLiteral reads a number, quoted string or bare identifier as a Value.
func (p *parser) parseLiteral() (table.Value, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		n, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return table.Value{}, p.errf("bad number %q: %v", t.text, err)
		}
		return table.NumberValue(n), nil
	case tokString:
		return table.ParseValue(t.text), nil
	case tokIdent:
		return table.StringValue(t.text), nil
	default:
		return table.Value{}, p.errf("expected literal, got %s", t)
	}
}
