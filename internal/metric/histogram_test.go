package metric

import (
	"math/rand"
	"testing"
	"time"
)

// TestBucketLayout checks the structural invariants the error bound of
// a bucket-derived quantile rests on: every value maps into a bucket whose inclusive upper
// bound is at least the value and overshoots it by at most
// 1/histSubCount relative error; bucket upper bounds are strictly
// increasing.
func TestBucketLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := []uint64{0, 1, 7, 8, 9, 15, 16, 17, 127, 128, 1 << 20, 1<<63 - 1, 1 << 63, ^uint64(0)}
	for i := 0; i < 10000; i++ {
		vals = append(vals, rng.Uint64()>>(uint(rng.Intn(64))))
	}
	for _, v := range vals {
		i := bucketIndex(v)
		if i < 0 || i >= histNumBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		up := bucketUpper(i)
		if up < v {
			t.Fatalf("bucketUpper(%d) = %d < value %d", i, up, v)
		}
		if v >= histSubCount && up-v > v/histSubCount {
			t.Fatalf("bucketUpper(%d) = %d overshoots %d by %d (> %d)", i, up, v, up-v, v/histSubCount)
		}
		if v < histSubCount && up != v {
			t.Fatalf("small value %d not exact: upper %d", v, up)
		}
	}
	for i := 1; i < histNumBuckets; i++ {
		if bucketUpper(i) <= bucketUpper(i-1) {
			t.Fatalf("bucket uppers not increasing at %d: %d <= %d", i, bucketUpper(i), bucketUpper(i-1))
		}
	}
}

// TestHistogramBasics: an empty histogram reads zero, a negative
// duration books as zero, the sum is exact, and nanosecond values below
// histSubCount land in exact buckets.
func TestHistogramBasics(t *testing.T) {
	h := NewLatencyHistogram("t")
	if s := h.Snapshot(); s.Sum != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty histogram not zero: %+v", s)
	}
	h.RecordDuration(-5) // clamps to 0
	h.RecordDuration(3)
	h.RecordDuration(7)
	s := h.Snapshot()
	if s.Sum != 10/1e9 {
		t.Errorf("sum = %g, want 1e-08", s.Sum)
	}
	want := []HistogramBucket{{0, 1}, {3 / 1e9, 2}, {7 / 1e9, 3}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
	for i, b := range s.Buckets {
		if b != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
}

func TestLatencyHistogramScale(t *testing.T) {
	h := NewLatencyHistogram("t")
	h.RecordDuration(2 * time.Second)
	s := h.Snapshot()
	if len(s.Buckets) != 1 || s.Buckets[0].CumCount != 1 {
		t.Fatalf("buckets = %+v, want one holding one observation", s.Buckets)
	}
	// 2s recorded as 2e9ns must expose ~2 seconds (within bucket width).
	if up := s.Buckets[0].Upper; up < 2.0 || up > 2.0*1.125 {
		t.Errorf("bucket upper = %f, want ~2s", up)
	}
	if s.Sum != 2.0 {
		t.Errorf("sum = %f, want 2", s.Sum)
	}
}

func TestSnapshotCumulativeBuckets(t *testing.T) {
	h := NewLatencyHistogram("t")
	for v := 0; v < 100; v++ {
		h.RecordDuration(time.Duration(v))
	}
	s := h.Snapshot()
	var prev uint64
	for i, b := range s.Buckets {
		if b.CumCount <= prev && i > 0 {
			t.Fatalf("bucket %d cumulative count not increasing: %d <= %d", i, b.CumCount, prev)
		}
		prev = b.CumCount
	}
	if prev != 100 {
		t.Fatalf("final cumulative = %d, want 100", prev)
	}
}
