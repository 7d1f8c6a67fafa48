package engine

import (
	"context"
	"errors"
	"testing"
	"time"
)

// callOp is one cached entry point of the engine, reduced to what the
// call-path contract needs: run it, and read its cache's counters.
type callOp struct {
	name string
	run  func(ctx context.Context, e *Engine, text string) error
	// good is an input that computes (for explain and answer, one whose
	// execution polls its context, so a computation started under a dead
	// context fails); bad one whose computation fails ("" when no input
	// can make it fail).
	good, bad string
	// readsCtx: the computation reads its context, so a context that
	// panics on Value panics inside the work. Candidate generation
	// never touches its ctx, and nothing else a test can reach makes it
	// panic.
	readsCtx bool
	hits     func(Stats) uint64
	misses   func(Stats) uint64
	size     func(Stats) int
}

var callOps = []callOp{
	{
		name: "explain",
		run: func(ctx context.Context, e *Engine, q string) error {
			_, _, err := e.ExplainCached(ctx, "olympics", q)
			return err
		},
		good: "max(R[Year].Country.Greece)", bad: "max((((", readsCtx: true,
		hits:   func(s Stats) uint64 { return s.ResultHits },
		misses: func(s Stats) uint64 { return s.ResultMisses },
		size:   func(s Stats) int { return s.ResultCache },
	},
	{
		name: "answer",
		run: func(ctx context.Context, e *Engine, q string) error {
			_, _, err := e.ExplainAnswer(ctx, "olympics", q)
			return err
		},
		good: "sum(R[Nations].Record)", bad: "max(R[Year].NoSuchColumn.x)", readsCtx: true,
		hits:   func(s Stats) uint64 { return s.AnswerHits },
		misses: func(s Stats) uint64 { return s.AnswerMisses },
		size:   func(s Stats) int { return s.AnswerCacheSize },
	},
	{
		name: "parse",
		run: func(ctx context.Context, e *Engine, q string) error {
			_, err := e.ParseQuestion(ctx, "olympics", q, 3)
			return err
		},
		good:   "which country had the most nations",
		hits:   func(s Stats) uint64 { return s.ParseHits },
		misses: func(s Stats) uint64 { return s.ParseMisses },
		size:   func(s Stats) int { return s.ParseCacheSize },
	},
}

// poisonCtx panics when asked for a value. Nothing on the caller's
// side of a call asks (deriving a deadline from a context whose Done
// is nil looks nothing up); pprof.Do inside the computation does.
type poisonCtx struct{ context.Context }

func (poisonCtx) Value(any) any { panic("poisoned context") }

func newCallEngine(t *testing.T, workers, maxPending int) *Engine {
	t.Helper()
	e := New(Options{CacheSize: 16, Workers: workers, MaxPending: maxPending})
	if _, err := e.RegisterTable(olympics(t)); err != nil {
		t.Fatal(err)
	}
	return e
}

// wantComputed runs op once more on its good input and requires a
// fresh, successful computation that ends up cached: the key was
// released and nothing had been published under it.
func wantComputed(t *testing.T, e *Engine, op callOp) {
	t.Helper()
	before := e.Stats()
	if n := op.size(before); n != 0 {
		t.Fatalf("%s cache holds %d entries, want 0", op.name, n)
	}
	if err := op.run(context.Background(), e, op.good); err != nil {
		t.Fatalf("%s after the failure: %v", op.name, err)
	}
	after := e.Stats()
	if op.hits(after) != op.hits(before) || op.misses(after) != op.misses(before)+1 {
		t.Errorf("%s after the failure: hits %d -> %d, misses %d -> %d, want a miss",
			op.name, op.hits(before), op.hits(after), op.misses(before), op.misses(after))
	}
	if n := op.size(after); n != 1 {
		t.Errorf("%s cache holds %d entries after a good computation, want 1", op.name, n)
	}
}

// TestCallPathContract pins what explain, answer and parse promise
// around their caches, whichever code serves them.
func TestCallPathContract(t *testing.T) {
	for _, op := range callOps {
		// A follower whose budget is live gets an answer although the
		// leader it joined gave up: the computation runs under the
		// leader's context, so when that died the follower retakes the key.
		t.Run(op.name+"/follower outlives leader", func(t *testing.T) {
			e := newCallEngine(t, 1, 4)
			e.sem <- struct{}{} // the leader's computation parks behind this
			lctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			if err := op.run(lctx, e, op.good); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("leader err = %v, want deadline exceeded", err)
			}
			follower := make(chan error, 1)
			go func() { follower <- op.run(context.Background(), e, op.good) }()
			for deadline := time.Now().Add(5 * time.Second); op.misses(e.Stats()) < 2; {
				if time.Now().After(deadline) {
					t.Fatal("follower never probed the cache")
				}
				time.Sleep(time.Millisecond)
			}
			time.Sleep(10 * time.Millisecond) // from the probe to the join
			if n := len(e.admit); n != 1 {
				t.Fatalf("%d computations admitted, want 1 (the follower joins the parked one)", n)
			}
			<-e.sem
			if err := <-follower; err != nil {
				t.Fatalf("follower err = %v, want success", err)
			}
			s := e.Stats()
			if op.size(s) != 1 {
				t.Errorf("cache holds %d entries, want 1", op.size(s))
			}
			if s.Timeouts != 1 {
				t.Errorf("Timeouts = %d, want 1 (the leader's)", s.Timeouts)
			}
		})

		t.Run(op.name+"/shed", func(t *testing.T) {
			e := newCallEngine(t, 1, 1)
			e.sem <- struct{}{}
			e.admit <- struct{}{}
			if err := op.run(context.Background(), e, op.good); !errors.Is(err, ErrOverloaded) {
				t.Fatalf("err = %v, want ErrOverloaded", err)
			}
			if s := e.Stats(); s.Sheds != 1 || s.Errors != 1 {
				t.Errorf("Sheds = %d, Errors = %d, want 1 and 1", s.Sheds, s.Errors)
			}
			<-e.admit
			<-e.sem
			wantComputed(t, e, op)
		})

		t.Run(op.name+"/hit beats expired ctx", func(t *testing.T) {
			e := newCallEngine(t, 2, 0)
			if err := op.run(context.Background(), e, op.good); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			defer cancel()
			if err := op.run(ctx, e, op.good); err != nil {
				t.Fatalf("warm key under an expired ctx: %v", err)
			}
			if s := e.Stats(); op.hits(s) != 1 || s.Timeouts != 0 {
				t.Errorf("hits = %d, Timeouts = %d, want 1 and 0", op.hits(s), s.Timeouts)
			}
		})

		if op.readsCtx {
			t.Run(op.name+"/panic", func(t *testing.T) {
				e := newCallEngine(t, 2, 0)
				err := op.run(poisonCtx{context.Background()}, e, op.good)
				if !errors.Is(err, ErrInternal) {
					t.Fatalf("err = %v, want ErrInternal", err)
				}
				if s := e.Stats(); s.Errors != 1 {
					t.Errorf("Errors = %d, want 1", s.Errors)
				}
				wantComputed(t, e, op)
			})
		}

		if op.bad != "" {
			t.Run(op.name+"/failure is not cached", func(t *testing.T) {
				e := newCallEngine(t, 2, 0)
				for i := range 2 {
					err := op.run(context.Background(), e, op.bad)
					if err == nil || isCtxErr(err) || errors.Is(err, ErrInternal) {
						t.Fatalf("run %d: err = %v, want the query's own error", i, err)
					}
				}
				if s := e.Stats(); op.misses(s) != 2 || op.hits(s) != 0 || s.Errors != 2 {
					t.Errorf("misses = %d, hits = %d, Errors = %d, want 2, 0, 2", op.misses(s), op.hits(s), s.Errors)
				}
				wantComputed(t, e, op)
			})
		}
	}
}
