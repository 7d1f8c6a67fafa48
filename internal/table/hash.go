package table

import (
	"math"
	"strconv"
	"strings"
)

// FNV-1a constants, shared by every canonical-key hash in the system.
const (
	// FNVOffset is the FNV-1a offset basis — the seed of an empty hash.
	FNVOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// HashKey folds the value's canonical key (exactly the bytes of
// Value.Key) into the running FNV-1a hash h, without materializing the
// key string. Two values with equal keys always produce equal hashes;
// unequal keys may collide, so dedup paths must confirm candidate
// matches with KeyEqual. Start chains from FNVOffset.
func (v Value) HashKey(h uint64) uint64 {
	var buf [48]byte
	switch v.Kind {
	case Number, Date:
		return hashFold(h, v.AppendTo(buf[:0]))
	default:
		if isASCII(v.Str) {
			return hashFold(h, v.Str)
		}
		// Unicode lowering cannot be streamed byte-wise; materialize the
		// canonical key (rare: non-ASCII cells only).
		return hashFold(h, strings.ToLower(v.Str))
	}
}

// HashString folds an already-canonical string into h without case
// folding.
func HashString[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// hashFold is FNV-1a with ASCII case folding, so "Greece" and "greece"
// hash identically — matching the strings.ToLower canonicalization of
// Value.Key for ASCII input. Number and date renderings are pure ASCII,
// and non-ASCII strings are lowered before they reach here.
func hashFold[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// appendNumber renders a number exactly as Value.String does, into dst.
func appendNumber(dst []byte, f float64) []byte {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.AppendInt(dst, int64(f), 10)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// appendKey renders the value's canonical key (Value.Key) into dst.
func appendKey(dst []byte, v Value) []byte {
	switch v.Kind {
	case Number, Date:
		return foldASCII(v.AppendTo(dst), len(dst))
	default:
		if isASCII(v.Str) {
			n := len(dst)
			return foldASCII(append(dst, v.Str...), n)
		}
		return append(dst, strings.ToLower(v.Str)...)
	}
}

// foldASCII lowercases b[from:] in place and returns b.
func foldASCII(b []byte, from int) []byte {
	for i := from; i < len(b); i++ {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return b
}

// KeyEqual reports whether two values share a canonical key — exactly
// a.Key() == b.Key(), computed without building either string on the
// common paths. This is the equality the KB index, DedupValues,
// Value.Equal and the plan executor's hash-dedup paths all share (a
// number cell and a text cell rendering to the same digits are one
// entity).
func KeyEqual(a, b Value) bool {
	if a.Kind == b.Kind {
		switch a.Kind {
		case Number:
			// Distinct floats render distinctly (shortest round-trip), so
			// key equality is numeric equality — except NaN, which is not
			// ==-equal to itself but renders as "nan" either way.
			return a.Num == b.Num || (math.IsNaN(a.Num) && math.IsNaN(b.Num))
		case Date:
			ay, am, ad := a.Time.Date()
			by, bm, bd := b.Time.Date()
			return ay == by && am == bm && ad == bd
		default:
			if isASCII(a.Str) && isASCII(b.Str) {
				return asciiFoldEqual(a.Str, b.Str)
			}
			return strings.ToLower(a.Str) == strings.ToLower(b.Str)
		}
	}
	// Mixed kinds share a key exactly when their rendered keys match.
	var ab, bb [48]byte
	return string(appendKey(ab[:0], a)) == string(appendKey(bb[:0], b))
}

// asciiFoldEqual is case-insensitive equality over pure-ASCII strings,
// agreeing byte for byte with strings.ToLower equality.
func asciiFoldEqual(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if ca >= 'A' && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if cb >= 'A' && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
