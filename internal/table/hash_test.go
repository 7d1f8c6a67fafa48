package table

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// hashCorpus covers every kind, ASCII/Unicode case folds, numeric
// renderings on both String branches, dates, NaN and cross-kind key
// collisions (the number 2004 and the text "2004" are one entity).
func hashCorpus() []Value {
	return []Value{
		StringValue(""),
		StringValue("Greece"),
		StringValue("greece"),
		StringValue("GREECE"),
		StringValue("4th Round"),
		StringValue("Did not qualify"),
		StringValue("ſ"), // U+017F: ToLower keeps it, though it folds to "s"
		StringValue("S"),
		StringValue("Straße"),
		StringValue("STRASSE"),
		StringValue("2004"),
		StringValue("1e+15"),
		NumberValue(2004),
		NumberValue(-0.0),
		NumberValue(0),
		NumberValue(1.5),
		NumberValue(1e15),
		NumberValue(1234567890123456),
		NumberValue(math.NaN()),
		NumberValue(math.Inf(1)),
		NumberValue(math.Inf(-1)),
		dateValue(2004, time.August, 13),
		dateValue(1896, time.April, 6),
		StringValue("2004-08-13"),
	}
}

// TestKeyEqualMatchesKey pins KeyEqual to the reference definition
// a.Key() == b.Key() over every corpus pair.
func TestKeyEqualMatchesKey(t *testing.T) {
	vals := hashCorpus()
	for _, a := range vals {
		for _, b := range vals {
			want := a.Key() == b.Key()
			if got := KeyEqual(a, b); got != want {
				t.Errorf("KeyEqual(%q, %q) = %t, want %t (keys %q vs %q)",
					a, b, got, want, a.Key(), b.Key())
			}
		}
	}
}

// TestHashKeyConsistentWithKeyEqual requires equal keys to hash
// equally — the invariant every hash-dedup path relies on.
func TestHashKeyConsistentWithKeyEqual(t *testing.T) {
	vals := hashCorpus()
	for _, a := range vals {
		for _, b := range vals {
			if a.Key() == b.Key() && a.HashKey(FNVOffset) != b.HashKey(FNVOffset) {
				t.Errorf("equal keys %q hash differently: %q -> %#x, %q -> %#x",
					a.Key(), a, a.HashKey(FNVOffset), b, b.HashKey(FNVOffset))
			}
		}
	}
}

// TestHashKeyMatchesHashString checks that streaming a value's key and
// hashing the materialized Key string agree byte for byte.
func TestHashKeyMatchesHashString(t *testing.T) {
	for _, v := range hashCorpus() {
		if got, want := v.HashKey(FNVOffset), HashString(FNVOffset, v.Key()); got != want {
			t.Errorf("HashKey(%q) = %#x, HashString(Key) = %#x", v, got, want)
		}
	}
}

// TestKeyEqualRandomNumbers fuzzes the Number fast path against the
// rendered-key reference over random floats, including both the
// integer and the shortest-float rendering branches.
func TestKeyEqualRandomNumbers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	draw := func() Value {
		switch rng.Intn(4) {
		case 0:
			return NumberValue(float64(rng.Intn(2000) - 1000))
		case 1:
			return NumberValue(rng.Float64() * 1e18)
		case 2:
			return NumberValue(math.Trunc(rng.Float64() * 1e16))
		default:
			return NumberValue(rng.NormFloat64())
		}
	}
	for i := 0; i < 5000; i++ {
		a, b := draw(), draw()
		if rng.Intn(4) == 0 {
			b = a
		}
		want := a.Key() == b.Key()
		if got := KeyEqual(a, b); got != want {
			t.Fatalf("KeyEqual(%v, %v) = %t, want %t", a, b, got, want)
		}
		if want && a.HashKey(FNVOffset) != b.HashKey(FNVOffset) {
			t.Fatalf("equal numeric keys hash differently: %v vs %v", a, b)
		}
	}
}
