// Package minisql is a small in-memory SQL engine over a single web
// table. It parses and executes the SQL fragment that Table 10 of
// "Explaining Queries over Web Tables to Non-Experts" (ICDE 2019) uses
// as the semantics of lambda DCS: SELECT with DISTINCT, WHERE
// predicates, IN/scalar subqueries, UNION, the five aggregate
// functions, GROUP BY/ORDER BY/LIMIT, arithmetic on the implicit Index
// attribute, and top-level differences of scalar subqueries. The
// syntax tree and its printer are package sqlast's; this package owns
// the lexer, the parser and the interpreter. Its purpose in this
// repository is adversarial: the sqlgen package translates every lambda
// DCS query into this fragment, and tests assert that both executors
// agree on every query.
package minisql

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"nlexplain/internal/sqlast"
)

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tKeyword
	tNumber
	tString
	tSymbol // ( ) , * = != < <= > >= + -
)

type token struct {
	kind tokKind
	text string // keywords upper-cased
	pos  int
}

func (t token) String() string {
	if t.kind == tEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

func lexSQL(src string) ([]token, error) {
	var toks []token
	pos := 0
	emit := func(k tokKind, text string, at int) {
		toks = append(toks, token{kind: k, text: text, pos: at})
	}
	for pos < len(src) {
		start := pos
		r, size := utf8.DecodeRuneInString(src[pos:])
		switch {
		case unicode.IsSpace(r):
			pos += size
		case r == '\'':
			// SQL string literal with '' escaping.
			pos++
			var b strings.Builder
			closed := false
			for pos < len(src) {
				if src[pos] == '\'' {
					if pos+1 < len(src) && src[pos+1] == '\'' {
						b.WriteByte('\'')
						pos += 2
						continue
					}
					pos++
					closed = true
					break
				}
				b.WriteByte(src[pos])
				pos++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string at offset %d", start)
			}
			emit(tString, b.String(), start)
		case r == '"':
			// Quoted identifier (column with spaces).
			pos++
			end := strings.IndexByte(src[pos:], '"')
			if end < 0 {
				return nil, fmt.Errorf("sql: unterminated quoted identifier at offset %d", start)
			}
			emit(tIdent, src[pos:pos+end], start)
			pos += end + 1
		case unicode.IsDigit(r):
			for pos < len(src) && (src[pos] >= '0' && src[pos] <= '9' || src[pos] == '.') {
				pos++
			}
			emit(tNumber, src[start:pos], start)
		case unicode.IsLetter(r) || r == '_':
			for pos < len(src) {
				rr, ss := utf8.DecodeRuneInString(src[pos:])
				if !unicode.IsLetter(rr) && !unicode.IsDigit(rr) && rr != '_' {
					break
				}
				pos += ss
			}
			word := src[start:pos]
			if up := strings.ToUpper(word); sqlast.Keywords[up] {
				emit(tKeyword, up, start)
			} else {
				emit(tIdent, word, start)
			}
		case r == '<' || r == '>':
			pos++
			op := string(r)
			if pos < len(src) && src[pos] == '=' {
				op += "="
				pos++
			}
			emit(tSymbol, op, start)
		case r == '!':
			pos++
			if pos >= len(src) || src[pos] != '=' {
				return nil, fmt.Errorf("sql: lone '!' at offset %d", start)
			}
			pos++
			emit(tSymbol, "!=", start)
		case strings.ContainsRune("(),*=+-", r):
			emit(tSymbol, string(r), start)
			pos++
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at offset %d", r, start)
		}
	}
	emit(tEOF, "", pos)
	return toks, nil
}
