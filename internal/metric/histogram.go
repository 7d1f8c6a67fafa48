package metric

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: log-linear, HDR-style. Values below
// histSubCount land in exact unit buckets; above that, each power-of-2
// magnitude is split into histSubCount linear sub-buckets, so the
// relative bucket width — and therefore the worst-case error of a
// quantile a scraper derives from the buckets — is bounded by
// 1/histSubCount (12.5%). Every recorded value is one atomic add into
// a fixed array: no sampling, no locks, no allocation.
const (
	histSubBits  = 3
	histSubCount = 1 << histSubBits // linear sub-buckets per magnitude
	// histNumBuckets covers the full uint64 range: histSubCount exact
	// unit buckets plus histSubCount sub-buckets for each magnitude
	// from 2^histSubBits up to 2^63.
	histNumBuckets = histSubCount + (64-histSubBits)*histSubCount
)

// bucketIndex maps a value to its bucket. Small values (< histSubCount)
// get exact buckets; larger ones index by (magnitude, linear sub-step).
func bucketIndex(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	exp := uint(bits.Len64(v) - 1) // position of the MSB, >= histSubBits
	sub := (v >> (exp - histSubBits)) & (histSubCount - 1)
	return int(uint(histSubCount) + (exp-histSubBits)*histSubCount + uint(sub))
}

// bucketUpper is the inclusive upper bound of bucket i — the "le" label
// of its _bucket series, so a bucket-derived quantile never
// under-reports.
func bucketUpper(i int) uint64 {
	if i < histSubCount {
		return uint64(i)
	}
	k := uint(i - histSubCount)
	exp := histSubBits + k/histSubCount
	sub := uint64(k % histSubCount)
	width := uint64(1) << (exp - histSubBits)
	lower := (histSubCount + sub) * width
	return lower + width - 1
}

// latencyScale divides recorded nanoseconds at exposition time, so a
// histogram's buckets and sum read in Prometheus-conventional seconds.
const latencyScale = 1e9

// Histogram is a lock-free log-linear histogram of latencies: it
// records nanoseconds and exposes seconds.
type Histogram struct {
	meta
	sum     atomic.Uint64 // of recorded nanoseconds
	buckets [histNumBuckets]atomic.Uint64
}

// NewLatencyHistogram builds an unregistered latency histogram. Name it
// "<path>.latency.seconds" so the exposed series reads
// "<path>_latency_seconds".
func NewLatencyHistogram(help string) *Histogram {
	return &Histogram{meta: meta{help: help, kind: KindHistogram}}
}

// RecordDuration books one observation; a negative duration counts as
// zero. One bucket add and one sum add: no allocation, safe for
// concurrent use.
func (h *Histogram) RecordDuration(d time.Duration) {
	u := uint64(max(d.Nanoseconds(), 0))
	h.buckets[bucketIndex(u)].Add(1)
	h.sum.Add(u)
}

// HistogramBucket is one non-empty bucket of a snapshot, with its
// cumulative count (Prometheus _bucket semantics).
type HistogramBucket struct {
	// Upper is the bucket's inclusive upper bound in seconds.
	Upper float64
	// CumCount counts observations at or below Upper.
	CumCount uint64
}

// HistogramSnapshot is a point-in-time read of a histogram in seconds.
// Concurrent recording may tear the sum against the buckets by a few
// in-flight observations; scrapers tolerate that.
type HistogramSnapshot struct {
	Sum     float64           // seconds
	Buckets []HistogramBucket // non-empty buckets only, ascending
}

// Count is the number of observations: the last bucket's cumulative
// count.
func (s HistogramSnapshot) Count() uint64 {
	if n := len(s.Buckets); n > 0 {
		return s.Buckets[n-1].CumCount
	}
	return 0
}

// Snapshot reads the histogram once: its sum and cumulative non-empty
// buckets, in seconds.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Sum: float64(h.sum.Load()) / latencyScale}
	var cum uint64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		s.Buckets = append(s.Buckets, HistogramBucket{
			Upper:    float64(bucketUpper(i)) / latencyScale,
			CumCount: cum,
		})
	}
	return s
}
