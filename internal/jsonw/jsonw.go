// Package jsonw appends two-space-indented JSON by hand: the bytes
// encoding/json's MarshalIndent makes, written in one pass without
// reflection. The explanation document's encoders (internal/export, and
// internal/render for its grid) are built from these pieces.
package jsonw

import (
	"encoding/json"
	"strconv"
)

// Array appends s as a JSON array at depth, one element per line at
// depth+1 written by elem: null for a nil slice, [] for an empty one.
func Array[E any](dst []byte, depth int, s []E, elem func(dst []byte, depth int, e E) []byte) []byte {
	if s == nil {
		return append(dst, "null"...)
	}
	return Elems(dst, depth, len(s), func(dst []byte, depth, i int) []byte { return elem(dst, depth, s[i]) })
}

// Elems appends a JSON array of n elements at depth, one per line at
// depth+1, the i-th written by elem: [] when n is 0.
func Elems(dst []byte, depth, n int, elem func(dst []byte, depth, i int) []byte) []byte {
	if n == 0 {
		return append(dst, "[]"...)
	}
	dst = append(dst, '[')
	for i := range n {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(Newline(dst, depth+1), depth+1, i)
	}
	return append(Newline(dst, depth), ']')
}

// StringElem and IntElem are Array's element writers for strings and
// ints.
func StringElem(dst []byte, _ int, s string) []byte { return String(dst, s) }

func IntElem(dst []byte, _ int, n int) []byte { return strconv.AppendInt(dst, int64(n), 10) }

// Key starts a member on a new line at depth: the quoted name, a colon
// and a space. name must need no escaping; the separating comma, if
// any, is the caller's.
func Key(dst []byte, depth int, name string) []byte {
	dst = append(Newline(dst, depth), '"')
	dst = append(dst, name...)
	return append(dst, `": `...)
}

// Newline starts a line indented depth levels.
func Newline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for range depth {
		dst = append(dst, "  "...)
	}
	return dst
}

// plain marks the bytes a JSON string holds as they are under
// encoding/json's defaults: printable ASCII other than the quote, the
// backslash and the three characters HTML escaping rewrites.
var plain = func() (set [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		set[c] = true
	}
	for _, c := range `"\<>&` {
		set[c] = false
	}
	return set
}()

// String appends s as a quoted JSON string, byte for byte what
// json.Marshal makes of it. A string of plain bytes is copied as it is;
// any other goes through json.Marshal, which owns the rest of the
// contract: control bytes, HTML escaping, U+FFFD for invalid UTF-8 and
// the \u2028 / \u2029 escapes.
func String(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
