package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nlexplain/internal/table"
)

// bigTable builds a deterministic n-row table with columns Nation,
// Games and Year.
func bigTable(tb testing.TB, n int) *table.Table {
	tb.Helper()
	rng := rand.New(rand.NewSource(3))
	nations := []string{"Greece", "France", "China", "UK", "Brazil", "Fiji"}
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{
			nations[rng.Intn(len(nations))],
			strconv.Itoa(rng.Intn(1_000_000)),
			strconv.Itoa(1896 + 4*rng.Intn(40)),
		}
	}
	t, err := table.New("big", []string{"Nation", "Games", "Year"}, rows)
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// TestBigTableParallelHammer drives parallel-eligible queries from
// several goroutines while a mutator churns the table with appends:
// every execution must run against the snapshot it pinned (version
// stamps prove it), with the morsel workers racing the store's
// mutation path. Run under -race this is the data-race gate for the
// parallel executor.
func TestBigTableParallelHammer(t *testing.T) {
	e := New(Options{CacheSize: 8, Workers: 4, QueryTimeout: time.Minute, ExecWorkers: 8})
	e.RegisterTable(bigTable(t, 1<<16))

	// One synchronous append so the run always sees at least one store
	// mutation, then a background mutator churning versions while the
	// hammer goroutines scan.
	if _, err := e.AppendRows("big", [][]string{{"Tonga", "0", "2000"}}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var mutator sync.WaitGroup
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.AppendRows("big", [][]string{
				{"Tonga", strconv.Itoa(i), "2000"},
			}); err != nil {
				t.Errorf("AppendRows: %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const goroutines = 8
	const opsPer = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				// Distinct literals per op defeat the answer cache, so
				// every call really scans; != keeps the scan on the
				// morsel-parallel complement kernel.
				q := fmt.Sprintf("count(Games!=%d)", g*1000+i)
				a, _, err := e.ExplainAnswer(context.Background(), "big", q)
				if errors.Is(err, ErrOverloaded) {
					continue
				}
				if err != nil {
					t.Errorf("ExplainAnswer(%q): %v", q, err)
					return
				}
				if a.Version == "" {
					t.Errorf("answer missing its snapshot version stamp")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	mutator.Wait()
}

// TestBigTableDeadline verifies a morsel-parallel scan honors the
// engine's query deadline: with a nanosecond budget the executor's
// context polling must abort the scan and surface the timeout.
func TestBigTableDeadline(t *testing.T) {
	e := New(Options{CacheSize: 8, Workers: 2, QueryTimeout: time.Nanosecond, ExecWorkers: 8})
	e.RegisterTable(bigTable(t, 1<<16))
	_, _, err := e.ExplainAnswer(context.Background(), "big", "count(Games!=7)")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// hogQuery is an expensive well-formed query: a tower of twelve
// argmax levels, each over a union that reads every row, under a
// distinct Games literal so that no two hogs share a cache key.
func hogQuery(n int) string {
	q := "Nation.Fiji"
	for i := range 12 {
		q = fmt.Sprintf("(%s or argmax((Games>%d or Year<1950), Year))", q, 80_000*i)
	}
	return fmt.Sprintf("R[Nation].argmin((%s u Games!=%d), Games)", q, n)
}

// TestAdversarialOverload is shedding and deadlines together under
// real concurrency: 32 callers send hogs, hogs under a 1 ms deadline,
// malformed queries and queries on a missing table at a one-worker
// engine that lets 8 computations pend. Some calls must be shed and
// some must time out, none may fail internally, the storm must end
// within its deadlines' reach, and the engine must serve afterwards.
func TestAdversarialOverload(t *testing.T) {
	// On one P a hog runs to completion before other callers are
	// scheduled, so the pending set never fills.
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	e := New(Options{Workers: 1, MaxPending: 8, QueryTimeout: 2 * time.Second})
	e.RegisterTable(bigTable(t, 2048))
	var sheds, timeouts atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := range 32 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 16 {
				n := 16*c + i
				budget, tab, query := 5*time.Second, "big", hogQuery(n)
				switch n % 8 {
				case 2, 3:
					budget = time.Millisecond
				case 4:
					query = "max(R[Games].Nation"
				case 5:
					tab = "no_such_table"
				}
				ctx, cancel := context.WithTimeout(context.Background(), budget)
				_, err := e.Explain(ctx, tab, query)
				cancel()
				switch {
				case errors.Is(err, ErrOverloaded):
					sheds.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					timeouts.Add(1)
				case errors.Is(err, ErrInternal):
					t.Errorf("call %d: %v", n, err)
				}
			}
		}()
	}
	wg.Wait()
	if sheds.Load() == 0 || timeouts.Load() == 0 {
		t.Errorf("%d sheds and %d timeouts, want both", sheds.Load(), timeouts.Load())
	}
	if counter(t, e, "engine.sheds") == 0 {
		t.Error("engine.sheds did not record the sheds")
	}
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Errorf("the storm took %v; deadlines are not being honored", elapsed)
	}
	if _, err := e.Explain(context.Background(), "big", "count(Nation.Fiji)"); err != nil {
		t.Fatalf("engine did not recover after overload: %v", err)
	}
}
