package engine

import (
	"context"
	"testing"
)

// missEngine is an engine over gamesTable with one cache entry, so
// every query evicts the one before it and each call below misses, and
// the benchmark's four query families flattened.
func missEngine(b *testing.B) (*Engine, []string) {
	e := New(Options{CacheSize: 1, Workers: 2})
	if _, err := e.RegisterTable(gamesTable()); err != nil {
		b.Fatal(err)
	}
	var queries []string
	for _, fam := range gamesFamilies {
		queries = append(queries, fam.queries...)
	}
	return e, queries
}

// BenchmarkExplainMiss times one uncached explain from the cache probe
// to the published explanation: the call path's own cost plus the
// pipeline's, the interactive path of the paper's deployment loop.
func BenchmarkExplainMiss(b *testing.B) {
	e, queries := missEngine(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, cached, err := e.ExplainCached(ctx, "games", q); err != nil || cached {
			b.Fatalf("%s: cached=%v err=%v, want an uncached explanation", q, cached, err)
		}
	}
}

// BenchmarkExplainBatchMiss times the batch of Figure 2's loop: the
// k = 7 candidates of one question, all distinct and all uncached,
// fanned out over two workers. Two disjoint batches alternate, so the
// one entry a batch leaves cached is never asked for by the next.
func BenchmarkExplainBatchMiss(b *testing.B) {
	e, queries := missEngine(b)
	var batches [2][]Request
	for i := range batches {
		for _, q := range queries[7*i : 7*i+7] {
			batches[i] = append(batches[i], Request{Table: "games", Query: q})
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqs := batches[i%2]
		for j, r := range e.ExplainBatch(ctx, reqs) {
			if r.Err != nil || r.Cached {
				b.Fatalf("%s: cached=%v err=%v, want an uncached explanation", reqs[j].Query, r.Cached, r.Err)
			}
		}
	}
}
