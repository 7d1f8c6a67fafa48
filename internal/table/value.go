// Package table implements the web-table data model of Section 3.1 of
// "Explaining Queries over Web Tables to Non-Experts" (ICDE 2019):
// ordered records with a unique Index and a Prev pointer, cells holding
// string, number or date values, and a knowledge-base view in which every
// column header is a binary relation from cell values to record indices.
package table

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the three cell value types of the paper's data model.
type Kind int

const (
	// String is a free-text cell value.
	String Kind = iota
	// Number is a numeric cell value (integers and decimals alike).
	Number
	// Date is a calendar date cell value.
	Date
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case String:
		return "string"
	case Number:
		return "number"
	case Date:
		return "date"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a typed cell value. The zero Value is the empty string.
type Value struct {
	Kind Kind
	Str  string    // set for Kind == String
	Num  float64   // set for Kind == Number
	Time time.Time // set for Kind == Date
}

// StringValue returns a Value of kind String.
func StringValue(s string) Value { return Value{Kind: String, Str: s} }

// NumberValue returns a Value of kind Number.
func NumberValue(f float64) Value { return Value{Kind: Number, Num: f} }

var dateLayouts = []string{
	"2006-01-02",
	"January 2, 2006",
	"January 2 2006",
	"Jan 2, 2006",
	"2 January 2006",
	"01/02/2006",
}

// ParseValue interprets raw cell text: it tries numbers first (allowing
// thousands separators and a leading currency sign), then the common date
// layouts, and falls back to a trimmed string. This mirrors the value
// typing used by WikiTableQuestions-style table extraction.
//
// Most cells of a web table are plain text, and a parser that fails
// pays for an error value, so text that cannot be a number or a date is
// never handed to one: every date layout carries a year, so a date
// holds a digit.
func ParseValue(raw string) Value {
	s := strings.TrimSpace(raw)
	if s == "" {
		return StringValue("")
	}
	if n, ok := parseNumber(s); ok {
		return NumberValue(n)
	}
	if strings.ContainsAny(s, "0123456789") {
		for _, layout := range dateLayouts {
			if t, err := time.Parse(layout, s); err == nil {
				return Value{Kind: Date, Time: t}
			}
		}
	}
	return StringValue(s)
}

// parseNumber parses trimmed cell text as a number. strconv.ParseFloat
// accepts only text that opens with a digit, a sign, a point, or the
// first letter of "inf", "infinity" or "nan" in either case; anything
// else is rejected here, before it costs a *strconv.NumError.
func parseNumber(s string) (float64, bool) {
	t := strings.TrimPrefix(s, "$")
	t = strings.ReplaceAll(t, ",", "")
	if t == "" || strings.IndexByte("0123456789+-.iInN", t[0]) < 0 {
		return 0, false
	}
	n, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// IsNumeric reports whether the value participates in arithmetic: numbers
// always, dates through their year ordering.
func (v Value) IsNumeric() bool { return v.Kind == Number || v.Kind == Date }

// Float returns the numeric interpretation of the value used by aggregate
// and superlative operators: the number itself, or a date's absolute
// ordering in days. The second result is false for plain strings.
func (v Value) Float() (float64, bool) {
	switch v.Kind {
	case Number:
		return v.Num, true
	case Date:
		return float64(v.Time.Unix()) / 86400, true
	default:
		return 0, false
	}
}

// String renders the value the way it would appear in a table cell.
func (v Value) String() string {
	if v.Kind == String {
		return v.Str
	}
	var buf [32]byte
	return string(v.AppendTo(buf[:0]))
}

// AppendTo appends v's String rendering to dst.
func (v Value) AppendTo(dst []byte) []byte {
	switch v.Kind {
	case Number:
		return appendNumber(dst, v.Num)
	case Date:
		return v.Time.AppendFormat(dst, "2006-01-02")
	default:
		return append(dst, v.Str...)
	}
}

// Equal reports whether two values are one entity: whether they share
// a canonical key (KeyEqual), the identity the KB index groups records
// by, so C.v and C!=v split a column's records between them. Text
// compares case-insensitively, matching the entity-matching convention
// of NL interfaces over web tables, and a number and a string that
// renders as that number are the same entity from the user's point of
// view ("value 2004" matches the cell 2004 regardless of extraction
// typing).
func (v Value) Equal(o Value) bool { return KeyEqual(v, o) }

// Compare orders two values: -1, 0 or +1. Numbers and dates compare on
// their numeric interpretation. Strings compare naturally: when both
// carry a leading number ("4th Round" vs "3rd Round") the numbers
// decide, a number-prefixed string outranks a plain one ("4th Round" >
// "Did not qualify" — the ordering behind the Figure 8 example), and
// otherwise comparison is case-insensitive lexicographic. Mixed-kind
// pairs compare on their rendered text so the ordering is total.
func (v Value) Compare(o Value) int {
	a, aok := v.Float()
	b, bok := o.Float()
	if aok && bok {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	as, bs := strings.ToLower(v.String()), strings.ToLower(o.String())
	an, aHasNum := leadingNumber(as)
	bn, bHasNum := leadingNumber(bs)
	switch {
	case aHasNum && bHasNum && an != bn:
		if an < bn {
			return -1
		}
		return 1
	case aHasNum != bHasNum:
		if aHasNum {
			return 1
		}
		return -1
	}
	return strings.Compare(as, bs)
}

// leadingNumber extracts a numeric prefix ("4th Round" -> 4, "150,000
// category" -> 150000). It reports false for strings with no such prefix.
func leadingNumber(s string) (float64, bool) {
	i := 0
	for i < len(s) && (s[i] >= '0' && s[i] <= '9' || s[i] == ',' || (s[i] == '.' && i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9')) {
		i++
	}
	if i == 0 {
		return 0, false
	}
	return parseNumberPrefix(s[:i])
}

func parseNumberPrefix(s string) (float64, bool) {
	t := strings.TrimSuffix(strings.ReplaceAll(s, ",", ""), ".")
	if t == "" {
		return 0, false
	}
	n, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Key returns a canonical map key for the value, used to build the
// knowledge-base index from cell values to record indices.
func (v Value) Key() string {
	return strings.ToLower(v.String())
}
