package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nlexplain/internal/metric"
	"nlexplain/internal/store"
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
	// cache names the op's engine.cache.<cache>.{hits,misses,size} series,
	// latency its engine.<latency>.latency.seconds histogram, which takes
	// one sample per finished computation.
	cache, latency string
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

// computed counts the op's finished computations.
func (op callOp) computed(t *testing.T, e *Engine) uint64 {
	t.Helper()
	m, _ := e.Metrics().Get("engine." + op.latency + ".latency.seconds")
	h, ok := m.(*metric.Histogram)
	if !ok {
		t.Fatalf("registry has no %s latency histogram", op.latency)
	}
	return h.Snapshot().Count()
}

var callOps = []callOp{
	{
		name: "explain",
		run: func(ctx context.Context, e *Engine, q string) error {
			_, _, err := e.ExplainCached(ctx, "olympics", q)
			return err
		},
		good: "max(R[Year].Country.Greece)", bad: "max((((", readsCtx: true,
		cache: "result", latency: "explain",
	},
	{
		name: "answer",
		run: func(ctx context.Context, e *Engine, q string) error {
			_, _, err := e.ExplainAnswer(ctx, "olympics", q)
			return err
		},
		good: "sum(R[Nations].Record)", bad: "max(R[Year].NoSuchColumn.x)", readsCtx: true,
		cache: "answer", latency: "answer",
	},
	{
		name: "parse",
		run: func(ctx context.Context, e *Engine, q string) error {
			_, err := e.ParseQuestion(ctx, "olympics", q, 3)
			return err
		},
		good:  "which country had the most nations",
		cache: "parse", latency: "parse",
	},
}

// poisonCtx panics when asked for a value. Nothing on the caller's
// side of a call asks (deriving a deadline from a context whose Done
// is nil looks nothing up); pprof.Do inside the computation does.
type poisonCtx struct{ context.Context }

func (poisonCtx) Value(any) any { panic("poisoned context") }

// gateCtx parks whoever looks a value up in it until open is closed,
// and says so on entered. The one lookup a request makes is pprof.Do's,
// inside an explain or answer computation: a request under a gateCtx is
// a real computation that holds its worker slot for as long as a test
// needs.
type gateCtx struct {
	context.Context
	enter         sync.Once
	entered, open chan struct{}
}

func (g *gateCtx) Value(any) any {
	g.enter.Do(func() { close(g.entered) })
	<-g.open
	return nil
}

// otherOp is an op whose computation reads its context, on another
// cache than op's: what a test runs beside op without touching op's
// counters.
func otherOp(op callOp) callOp {
	if op.cache == callOps[0].cache {
		return callOps[1]
	}
	return callOps[0]
}

// holdSlot takes one of e's worker slots with a blocked real request
// (of otherOp(op)) and returns once its computation is running. release
// lets it finish and waits for its caller to return, by when the slot
// and its place in the pending set are free again.
func holdSlot(t *testing.T, e *Engine, op callOp) (release func()) {
	t.Helper()
	holder := otherOp(op)
	g := &gateCtx{Context: context.Background(), entered: make(chan struct{}), open: make(chan struct{})}
	done := make(chan error, 1)
	go func() { done <- holder.run(g, e, holder.good) }()
	select {
	case <-g.entered:
	case err := <-done:
		t.Fatalf("the slot holder returned before computing: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("the slot holder never started computing")
	}
	return func() {
		t.Helper()
		close(g.open)
		if err := <-done; err != nil {
			t.Fatalf("the slot holder: %v", err)
		}
	}
}

// waitFor polls until cond holds; what names the event in the failure.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

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
		// A leader that waits for a worker slot gives up at its deadline,
		// and a follower whose budget is live gets an answer although the
		// leader it joined is gone: the key is computed once, by whoever
		// retakes it.
		t.Run(op.name+"/follower outlives leader", func(t *testing.T) {
			e := newCallEngine(t, 1, 4)
			release := holdSlot(t, e, op)
			lctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			leader, follower := make(chan error, 1), make(chan error, 1)
			go func() { leader <- op.run(lctx, e, op.good) }()
			waitFor(t, "the leader's probe", func() bool { return op.misses(t, e) >= 1 })
			go func() { follower <- op.run(context.Background(), e, op.good) }()
			waitFor(t, "the follower's probe", func() bool { return op.misses(t, e) >= 2 })
			select { // the slot is still held
			case err := <-leader:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("leader err = %v, want deadline exceeded", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a leader waiting for a worker slot outlived its deadline")
			}
			release()
			if err := <-follower; err != nil {
				t.Fatalf("follower err = %v, want success", err)
			}
			if n, c := op.size(t, e), op.computed(t, e); n != 1 || c != 1 {
				t.Errorf("cache holds %d entries after %d computations, want 1 and 1", n, c)
			}
			wantTimeoutOnly(t, e) // the leader's
		})

		t.Run(op.name+"/shed", func(t *testing.T) {
			e := newCallEngine(t, 1, 1)
			release := holdSlot(t, e, op) // the pending set is full
			if err := op.run(context.Background(), e, op.good); !errors.Is(err, ErrOverloaded) {
				t.Fatalf("err = %v, want ErrOverloaded", err)
			}
			if sheds, errs := counter(t, e, "engine.sheds"), counter(t, e, "engine.errors"); sheds != 1 || errs != 1 {
				t.Errorf("engine.sheds = %d, engine.errors = %d, want 1 and 1", sheds, errs)
			}
			release() // what the holder held is given back before its caller returns
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

// goroutineHeader is the calling goroutine's identity: the first line
// of its stack dump up to the state ("goroutine 18").
func goroutineHeader() string {
	buf := make([]byte, 64)
	header, _, _ := strings.Cut(string(buf[:runtime.Stack(buf, false)]), " [")
	return header
}

// computeRecord is what a recording computation saw: the goroutine it
// ran on and how many goroutines existed while it did.
type computeRecord struct {
	goroutine  string
	goroutines int
}

// recordingEngine is an engine whose explanation cache notes, per query,
// where its computation ran before running it.
func recordingEngine(t *testing.T, workers int) (*Engine, func(query string) computeRecord) {
	t.Helper()
	e := newCallEngine(t, workers, 0)
	var mu sync.Mutex
	seen := map[string]computeRecord{}
	e.results = newCached(e, metric.NewRegistry(), "recorded", "recorded explanation",
		func(ctx context.Context, snap *store.Snapshot, tableName, query string) (*Explanation, error) {
			mu.Lock()
			seen[query] = computeRecord{goroutineHeader(), runtime.NumGoroutine()}
			mu.Unlock()
			return e.compute(ctx, snap, tableName, query)
		})
	return e, func(query string) computeRecord {
		mu.Lock()
		defer mu.Unlock()
		return seen[query]
	}
}

// TestLeaderComputesOnCaller pins that no request is handed to another
// goroutine to be computed: a miss runs on the goroutine that asked, a
// batch's caller is one of its workers, and a batch that needs no
// second worker starts none.
func TestLeaderComputesOnCaller(t *testing.T) {
	queries := olympicsQueries
	batch := func(qs []string) []Request {
		reqs := make([]Request, len(qs))
		for i, q := range qs {
			reqs[i] = Request{Table: "olympics", Query: q}
		}
		return reqs
	}
	t.Run("single call", func(t *testing.T) {
		e, where := recordingEngine(t, 4)
		if _, err := e.Explain(context.Background(), "olympics", queries[0]); err != nil {
			t.Fatal(err)
		}
		if got, want := where(queries[0]).goroutine, goroutineHeader(); got != want {
			t.Errorf("computed on %s, want the caller's %s", got, want)
		}
	})

	// One item, or one worker: the caller computes everything and the
	// process is no goroutine larger while it does.
	for name, tc := range map[string]struct {
		workers int
		queries []string
	}{
		"one-item batch":   {4, queries[:1]},
		"Workers: 1 batch": {1, queries},
	} {
		t.Run(name, func(t *testing.T) {
			e, where := recordingEngine(t, tc.workers)
			before := runtime.NumGoroutine()
			for i, r := range e.ExplainBatch(context.Background(), batch(tc.queries)) {
				if r.Err != nil {
					t.Fatalf("item %d: %v", i, r.Err)
				}
				rec := where(tc.queries[i])
				if want := goroutineHeader(); rec.goroutine != want {
					t.Errorf("item %d computed on %s, want the caller's %s", i, rec.goroutine, want)
				}
				if rec.goroutines > before {
					t.Errorf("item %d computed among %d goroutines, %d before the batch", i, rec.goroutines, before)
				}
			}
		})
	}

	t.Run("batch starts Workers - 1 goroutines", func(t *testing.T) {
		const workers = 3
		e, where := recordingEngine(t, workers)
		if res := e.ExplainBatch(context.Background(), batch(queries)); len(res) != len(queries) {
			t.Fatalf("%d results, want %d", len(res), len(queries))
		}
		others := map[string]bool{}
		for _, q := range queries {
			if g := where(q).goroutine; g != goroutineHeader() {
				others[g] = true
			}
		}
		if len(others) > workers-1 {
			t.Errorf("%d goroutines beside the caller computed, want at most %d", len(others), workers-1)
		}
	})

	t.Run("1000 misses", func(t *testing.T) {
		e := newCallEngine(t, 2, 0)
		before := runtime.NumGoroutine()
		for i := range 1000 {
			if _, cached, err := e.ExplainCached(context.Background(), "olympics", "count(Year>"+strconv.Itoa(i)+")"); err != nil || cached {
				t.Fatalf("miss %d: cached=%v err=%v", i, cached, err)
			}
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%d goroutines after 1000 misses, %d before", after, before)
		}
	})
}

// TestContextFailureIsNotAnError pins how a computation that dies of
// its caller's context is booked, whichever of the leader and its
// followers notices first: a deadline as one engine.timeouts each, a
// cancellation as nothing, and never as engine.errors — that series is
// bad queries, unknown tables and contained panics.
func TestContextFailureIsNotAnError(t *testing.T) {
	for name, tc := range map[string]struct {
		ctx      func() (context.Context, context.CancelFunc)
		want     error
		timeouts uint64
	}{
		"deadline": {func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 5*time.Millisecond)
		}, context.DeadlineExceeded, 3},
		"cancel": {func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(5*time.Millisecond, cancel)
			return ctx, cancel
		}, context.Canceled, 0},
	} {
		t.Run(name, func(t *testing.T) {
			e := newCallEngine(t, 2, 0)
			// A scan that notices its context at the next morsel boundary.
			c := newCached(e, metric.NewRegistry(), "scan", "scan",
				func(ctx context.Context, _ *store.Snapshot, _, _ string) (int, error) {
					<-ctx.Done()
					return 0, fmt.Errorf("scanning: %w", ctx.Err())
				})
			ctx, cancel := tc.ctx()
			defer cancel()
			errs := make(chan error, 3)
			for range cap(errs) { // one leader, two followers, one budget
				go func() {
					_, _, _, err := c.call(ctx, "olympics", "q")
					errs <- err
				}()
			}
			for range cap(errs) {
				if err := <-errs; !errors.Is(err, tc.want) {
					t.Errorf("err = %v, want %v", err, tc.want)
				}
			}
			if timeouts, errs := counter(t, e, "engine.timeouts"), counter(t, e, "engine.errors"); timeouts != tc.timeouts || errs != 0 {
				t.Errorf("engine.timeouts = %d, engine.errors = %d, want %d and 0", timeouts, errs, tc.timeouts)
			}
		})
	}
}
