package plan

import (
	"math/rand"
	"slices"
	"testing"
)

// refRows lists a map-backed reference set in ascending order.
func refRows(m map[int32]bool) []int32 {
	out := make([]int32, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	slices.Sort(out)
	return out
}

// TestRowSetAgainstMapReference drives random inserts and membership
// probes through RowSet and a map side by side across awkward universe
// sizes (word boundaries, sub-word, empty).
func TestRowSetAgainstMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		s := RowSet{words: make([]uint64, rowSetWords(n))}
		ref := make(map[int32]bool)
		for iter := 0; iter < 200; iter++ {
			if n > 0 {
				switch rng.Intn(3) {
				case 0:
					r := rng.Int31n(int32(n))
					s.Add(r)
					ref[r] = true
				case 1:
					rows := make([]int32, rng.Intn(5))
					for i := range rows {
						rows[i] = rng.Int31n(int32(n))
						ref[rows[i]] = true
					}
					s.AddRows(rows)
				case 2:
					r := rng.Int31n(int32(n))
					if s.Contains(r) != ref[r] {
						t.Fatalf("n=%d Contains(%d) = %t, want %t", n, r, s.Contains(r), ref[r])
					}
				}
			}
			if got, want := s.Count(), len(ref); got != want {
				t.Fatalf("n=%d Count = %d, want %d", n, got, want)
			}
			if got, want := s.AppendRows(nil), refRows(ref); !slices.Equal(got, want) {
				t.Fatalf("n=%d AppendRows = %v, want %v", n, got, want)
			}
		}
	}
}

// TestRowSetOrGrowsAndResets: Or grows a zero set to hold each run it
// is given, however far past the set's words the run ends, and a set
// Reset after use starts empty again, stale words and all.
func TestRowSetOrGrowsAndResets(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var s RowSet
	for round := 0; round < 50; round++ {
		ref := make(map[int32]bool)
		for range rng.Intn(4) {
			run := make([]int32, rng.Intn(6))
			for i := range run {
				run[i] = rng.Int31n(int32(1 + 64*rng.Intn(5)))
				ref[run[i]] = true
			}
			slices.Sort(run)
			s.Or(slices.Compact(run))
		}
		if got, want := s.AppendRows(nil), refRows(ref); !slices.Equal(got, want) || s.Count() != len(want) {
			t.Fatalf("round %d: rows %v (count %d), want %v", round, got, s.Count(), want)
		}
		s.Reset()
	}
}
