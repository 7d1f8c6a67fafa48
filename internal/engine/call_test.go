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
	// cache names the op's engine.cache.<cache>.{hits,misses,size} series.
	cache string
}

func (op callOp) hits(t *testing.T, e *Engine) uint64 {
	return counter(t, e, "engine.cache."+op.cache+".hits")
}

func (op callOp) misses(t *testing.T, e *Engine) uint64 {
	return counter(t, e, "engine.cache."+op.cache+".misses")
}

func (op callOp) size(t *testing.T, e *Engine) uint64 {
	return counter(t, e, "engine.cache."+op.cache+".size")
}

var callOps = []callOp{
	{
		name: "explain",
		run: func(ctx context.Context, e *Engine, q string) error {
			_, _, err := e.ExplainCached(ctx, "olympics", q)
			return err
		},
		good: "max(R[Year].Country.Greece)", bad: "max((((", readsCtx: true,
		cache: "result",
	},
	{
		name: "answer",
		run: func(ctx context.Context, e *Engine, q string) error {
			_, _, err := e.ExplainAnswer(ctx, "olympics", q)
			return err
		},
		good: "sum(R[Nations].Record)", bad: "max(R[Year].NoSuchColumn.x)", readsCtx: true,
		cache: "answer",
	},
	{
		name: "parse",
		run: func(ctx context.Context, e *Engine, q string) error {
			_, err := e.ParseQuestion(ctx, "olympics", q, 3)
			return err
		},
		good:  "which country had the most nations",
		cache: "parse",
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
	hits, misses := op.hits(t, e), op.misses(t, e)
	if n := op.size(t, e); n != 0 {
		t.Fatalf("%s cache holds %d entries, want 0", op.name, n)
	}
	if err := op.run(context.Background(), e, op.good); err != nil {
		t.Fatalf("%s after the failure: %v", op.name, err)
	}
	if h, m := op.hits(t, e), op.misses(t, e); h != hits || m != misses+1 {
		t.Errorf("%s after the failure: hits %d -> %d, misses %d -> %d, want a miss",
			op.name, hits, h, misses, m)
	}
	if n := op.size(t, e); n != 1 {
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
			for deadline := time.Now().Add(5 * time.Second); op.misses(t, e) < 2; {
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
			if n := op.size(t, e); n != 1 {
				t.Errorf("cache holds %d entries, want 1", n)
			}
			if n := counter(t, e, "engine.timeouts"); n != 1 {
				t.Errorf("engine.timeouts = %d, want 1 (the leader's)", n)
			}
		})

		t.Run(op.name+"/shed", func(t *testing.T) {
			e := newCallEngine(t, 1, 1)
			e.sem <- struct{}{}
			e.admit <- struct{}{}
			if err := op.run(context.Background(), e, op.good); !errors.Is(err, ErrOverloaded) {
				t.Fatalf("err = %v, want ErrOverloaded", err)
			}
			if sheds, errs := counter(t, e, "engine.sheds"), counter(t, e, "engine.errors"); sheds != 1 || errs != 1 {
				t.Errorf("engine.sheds = %d, engine.errors = %d, want 1 and 1", sheds, errs)
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
			if h, timeouts := op.hits(t, e), counter(t, e, "engine.timeouts"); h != 1 || timeouts != 0 {
				t.Errorf("hits = %d, engine.timeouts = %d, want 1 and 0", h, timeouts)
			}
		})

		if op.readsCtx {
			t.Run(op.name+"/panic", func(t *testing.T) {
				e := newCallEngine(t, 2, 0)
				err := op.run(poisonCtx{context.Background()}, e, op.good)
				if !errors.Is(err, ErrInternal) {
					t.Fatalf("err = %v, want ErrInternal", err)
				}
				if n := counter(t, e, "engine.errors"); n != 1 {
					t.Errorf("engine.errors = %d, want 1", n)
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
				if m, h, errs := op.misses(t, e), op.hits(t, e), counter(t, e, "engine.errors"); m != 2 || h != 0 || errs != 2 {
					t.Errorf("misses = %d, hits = %d, engine.errors = %d, want 2, 0, 2", m, h, errs)
				}
				wantComputed(t, e, op)
			})
		}
	}
}
