package minisql

import (
	"fmt"
	"strconv"

	"nlexplain/internal/sqlast"
	"nlexplain/internal/table"
)

// Parse reads a SQL statement in the Table 10 fragment.
func Parse(src string) (sqlast.Query, error) {
	toks, err := lexSQL(src)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tEOF {
		return nil, p.errf("unexpected trailing input %s", p.peek())
	}
	return q, nil
}

// MustParse is Parse, panicking on error.
func MustParse(src string) sqlast.Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type sqlParser struct {
	toks []token
	pos  int
}

func (p *sqlParser) peek() token { return p.toks[p.pos] }

func (p *sqlParser) peekAt(n int) token {
	i := p.pos + n
	if i >= len(p.toks) {
		i = len(p.toks) - 1
	}
	return p.toks[i]
}

func (p *sqlParser) next() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *sqlParser) errf(format string, args ...any) error {
	return fmt.Errorf("sql parse: "+format, args...)
}

func (p *sqlParser) accept(kind tokKind, text string) bool {
	if t := p.peek(); t.kind == kind && t.text == text {
		p.next()
		return true
	}
	return false
}

func (p *sqlParser) expectSym(s string) error {
	if !p.accept(tSymbol, s) {
		return p.errf("expected %q, got %s", s, p.peek())
	}
	return nil
}

func (p *sqlParser) expectKw(k string) error {
	if !p.accept(tKeyword, k) {
		return p.errf("expected %s, got %s", k, p.peek())
	}
	return nil
}

// parseQuery := term (UNION term | '-' term)*
func (p *sqlParser) parseQuery() (sqlast.Query, error) {
	q, err := p.parseQueryTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tKeyword, "UNION"):
			r, err := p.parseQueryTerm()
			if err != nil {
				return nil, err
			}
			q = &sqlast.UnionQuery{L: q, R: r}
		case p.accept(tSymbol, "-"):
			r, err := p.parseQueryTerm()
			if err != nil {
				return nil, err
			}
			q = &sqlast.DiffQuery{L: q, R: r}
		default:
			return q, nil
		}
	}
}

func (p *sqlParser) parseQueryTerm() (sqlast.Query, error) {
	if p.accept(tSymbol, "(") {
		q, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return q, nil
	}
	return p.parseSelect()
}

func (p *sqlParser) parseSelect() (*sqlast.Select, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	s := &sqlast.Select{Limit: -1}
	s.Distinct = p.accept(tKeyword, "DISTINCT")
	for {
		if p.accept(tSymbol, "*") {
			s.Items = append(s.Items, sqlast.SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.accept(tKeyword, "AS") {
				if t := p.next(); t.kind != tIdent {
					return nil, p.errf("expected alias after AS, got %s", t)
				}
			}
			s.Items = append(s.Items, sqlast.SelectItem{Expr: e})
		}
		if !p.accept(tSymbol, ",") {
			break
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	from := p.next()
	if from.kind != tIdent {
		return nil, p.errf("expected table name after FROM, got %s", from)
	}
	s.From = from.text
	if p.accept(tKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.accept(tKeyword, "GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		col := p.next()
		if col.kind != tIdent {
			return nil, p.errf("expected column after GROUP BY, got %s", col)
		}
		s.GroupBy = col.text
	}
	if p.accept(tKeyword, "ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.OrderBy = e
		if p.accept(tKeyword, "DESC") {
			s.Desc = true
		} else {
			p.accept(tKeyword, "ASC")
		}
	}
	if p.accept(tKeyword, "LIMIT") {
		n := p.next()
		if n.kind != tNumber {
			return nil, p.errf("expected number after LIMIT, got %s", n)
		}
		lim, err := strconv.Atoi(n.text)
		if err != nil {
			return nil, p.errf("bad LIMIT %q", n.text)
		}
		s.Limit = lim
	}
	return s, nil
}

// Expression precedence: OR < AND < NOT < comparison/IN < additive < primary.
func (p *sqlParser) parseExpr() (sqlast.Expr, error) { return p.parseOr() }

func (p *sqlParser) parseOr() (sqlast.Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &sqlast.BinOp{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *sqlParser) parseAnd() (sqlast.Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tKeyword, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &sqlast.BinOp{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *sqlParser) parseNot() (sqlast.Expr, error) {
	if p.accept(tKeyword, "NOT") {
		arg, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &sqlast.NotExpr{Arg: arg}, nil
	}
	return p.parseCmp()
}

func (p *sqlParser) parseCmp() (sqlast.Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tSymbol {
		switch t.text {
		case "=", "!=", "<", "<=", ">", ">=":
			p.next()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &sqlast.BinOp{Op: t.text, L: l, R: r}, nil
		}
	}
	if p.accept(tKeyword, "IN") {
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		q, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return &sqlast.InSubq{L: l, Q: q}, nil
	}
	return l, nil
}

func (p *sqlParser) parseAdd() (sqlast.Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tSymbol || (t.text != "+" && t.text != "-") {
			return l, nil
		}
		p.next()
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = &sqlast.BinOp{Op: t.text, L: l, R: r}
	}
}

func (p *sqlParser) parsePrimary() (sqlast.Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tNumber:
		p.next()
		n, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &sqlast.Lit{V: table.NumberValue(n)}, nil
	case t.kind == tString:
		p.next()
		return &sqlast.Lit{V: table.ParseValue(t.text)}, nil
	case t.kind == tKeyword && isAggr(t.text):
		p.next()
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		call := &sqlast.AggrCall{Fn: t.text}
		call.Distinct = p.accept(tKeyword, "DISTINCT")
		if p.accept(tSymbol, "*") {
			call.Star = true
		} else {
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Arg = arg
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return call, nil
	case t.kind == tIdent:
		p.next()
		return &sqlast.ColRef{Name: t.text}, nil
	case t.kind == tSymbol && t.text == "(":
		// Scalar subquery or grouped expression: decide by peeking for
		// SELECT (possibly behind further parens).
		if p.looksLikeSubquery() {
			p.next()
			q, err := p.parseQuery()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return &sqlast.ScalarSubq{Q: q}, nil
		}
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errf("unexpected %s", t)
}

func (p *sqlParser) looksLikeSubquery() bool {
	for i := 1; ; i++ {
		t := p.peekAt(i)
		if t.kind == tSymbol && t.text == "(" {
			continue
		}
		return t.kind == tKeyword && t.text == "SELECT"
	}
}

func isAggr(kw string) bool {
	switch kw {
	case "COUNT", "MIN", "MAX", "SUM", "AVG":
		return true
	}
	return false
}
