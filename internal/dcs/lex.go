package dcs

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokKind enumerates lexical token kinds of the lambda DCS surface syntax.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString // quoted
	tokDot
	tokComma
	tokLParen
	tokRParen
	tokLBrack
	tokRBrack
	tokOp // < <= > >= !=
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer tokenizes the paper's surface syntax, e.g.
// max(R[Year].Country.Greece), sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga),
// argmax((Athens or London), R[λx.count(City.x)]).
type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		start := l.pos
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		switch {
		case unicode.IsSpace(r):
			l.pos += size
		case r == '.':
			l.emit(tokDot, ".", start)
			l.pos++
		case r == ',':
			l.emit(tokComma, ",", start)
			l.pos++
		case r == '(':
			l.emit(tokLParen, "(", start)
			l.pos++
		case r == ')':
			l.emit(tokRParen, ")", start)
			l.pos++
		case r == '[':
			l.emit(tokLBrack, "[", start)
			l.pos++
		case r == ']':
			l.emit(tokRBrack, "]", start)
			l.pos++
		case r == '"':
			if err := l.lexString(start); err != nil {
				return nil, err
			}
		case r == '<' || r == '>':
			op := string(r)
			l.pos++
			if l.pos < len(l.src) && l.src[l.pos] == '=' {
				op += "="
				l.pos++
			}
			l.emit(tokOp, op, start)
		case r == '!':
			l.pos++
			if l.pos >= len(l.src) || l.src[l.pos] != '=' {
				return nil, fmt.Errorf("lambda DCS syntax: lone '!' at offset %d", start)
			}
			l.pos++
			l.emit(tokOp, "!=", start)
		case r == '-' || unicode.IsDigit(r):
			l.lexNumber(start)
		case r == 'λ' || r == '\\':
			// 'λx' (or ASCII '\x') introduces the lambda body of a
			// superlative; lexed as a single identifier.
			l.pos += size
			if l.pos < len(l.src) && l.src[l.pos] == 'x' {
				l.pos++
			}
			l.emit(tokIdent, "λx", start)
		case isIdentRune(r):
			l.lexIdent(start)
		default:
			return nil, fmt.Errorf("lambda DCS syntax: unexpected character %q at offset %d", r, start)
		}
	}
	l.emit(tokEOF, "", l.pos)
	return l.toks, nil
}

func (l *lexer) emit(k tokKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: k, text: text, pos: pos})
}

// lexString reads a quoted string: its bytes as they are up to the
// next '"', which no multi-byte rune contains, so text that is not
// UTF-8 reads back as itself.
func (l *lexer) lexString(start int) error {
	n := strings.IndexByte(l.src[start+1:], '"')
	if n < 0 {
		return fmt.Errorf("lambda DCS syntax: unterminated string at offset %d", start)
	}
	l.emit(tokString, l.src[start+1:start+1+n], start)
	l.pos = start + 2 + n
	return nil
}

func (l *lexer) lexNumber(start int) {
	l.pos++ // sign or first digit
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
			l.pos++
			continue
		}
		break
	}
	l.emit(tokNumber, l.src[start:l.pos], start)
}

func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '\'' || r == '#' || r == '/' || r == '%' || r == '$' || r == '&'
}

func (l *lexer) lexIdent(start int) {
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentRune(r) {
			break
		}
		l.pos += size
	}
	l.emit(tokIdent, l.src[start:l.pos], start)
}
