package dcs_test

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	. "nlexplain/internal/dcs"
)

// parseAllocBound is the most Parse may allocate for a query of n
// bytes: linear in n, and so bounded for any input by MaxQueryBytes,
// past which a query is refused before it is read.
func parseAllocBound(n int) uint64 {
	return 16<<10 + 256*uint64(min(n, MaxQueryBytes))
}

// FuzzParse holds the lambda DCS parser to its contract on any text:
// it parses or is refused with an error, never panics, and allocates
// no more than parseAllocBound of its length. A query that parses
// renders (Render, through String) to text that parses back to the
// same tree, unless the rendering is longer than MaxQueryBytes, which
// Parse refuses unread.
func FuzzParse(f *testing.F) {
	for _, tc := range diffCorpus {
		f.Add(tc.src)
	}
	for _, src := range []string{
		"Greece", `"New Caledonia"`, "Record", "Prev.City.London", "R[City].R[Prev].City.Athens",
		"sub(R[Total].Nation.Fiji, R[Total].Nation.Tonga)", "R[Year].argmin(Country.Greece, Index)",
		"argmax(Values[City], R[λx.count(City.x)])", `argmax((Athens or London), R[\x.count(City.x)])`,
		"argmax((London or Beijing), R[λx.R[Year].City.x])", "(Games>=5 u Games<17)", "Games!=3",
		`R[Year]."Open Cup"."4th Round"`, `"nan"`, `"inf"`, `"-Inf"`, `"1e16"`, `Year<"1e300"`, "Year>=1e3", "Year>-0", `"-0"`, `"0x1p-2"`,
		`"2004-08-13"`, `Year>"June 8, 2013"`, `"a\"b"`, `"a\\"`,
		"", "(", ")", "R[", "count(", "sub(1,", "argmax(Record", `"unterminated`, "λ", "\xff", "Year>",
		nested("count(", "Nation.Greece", ")", MaxDepth-2), nested("count(", "Nation.Greece", ")", MaxDepth),
		nested("(", "A.b", " u A.b)", 40), "Nation.Greece " + strings.Repeat(" ", MaxQueryBytes),
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, err := Parse(src)
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, parseAllocBound(len(src)); grew > bound {
			t.Fatalf("parsing %d bytes allocated %d, bound %d", len(src), grew, bound)
		}
		if err != nil {
			if e != nil {
				t.Fatalf("Parse(%q) returned a tree and the error %v", src, err)
			}
			return
		}
		printed := e.String()
		again, err := Parse(printed)
		var le *LengthError
		if len(printed) > MaxQueryBytes && errors.As(err, &le) {
			// Render spells \x as λx and puts a space after a comma, so a
			// query near the cap can render past it.
			return
		}
		if err != nil {
			t.Fatalf("Parse(%q) renders to %q, which does not parse: %v", src, printed, err)
		}
		if !sameTree(reflect.ValueOf(e), reflect.ValueOf(again)) {
			t.Fatalf("Parse(%q) renders to %q, which parses to another tree: %s", src, printed, again)
		}
	})
}

// sameTree is reflect.DeepEqual, except that a NaN equals a NaN: two
// trees are the same when every node and every value in them is.
func sameTree(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() || a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameTree(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameTree(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameTree(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Float32, reflect.Float64:
		return a.Float() == b.Float() || math.IsNaN(a.Float()) && math.IsNaN(b.Float())
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	}
	panic("sameTree: no comparison for kind " + a.Kind().String())
}
