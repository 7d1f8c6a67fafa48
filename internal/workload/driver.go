package workload

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a driver run.
type Options struct {
	// Workers is the closed-loop concurrency. Required.
	Workers int
	// MaxOps is how many ops the run executes. Required: an op-count
	// bound makes two runs execute the identical op multiset.
	MaxOps int
	// OpTimeout is the driver-side deadline per op (ops may carry their
	// own tighter TimeoutMs). Default 30s.
	OpTimeout time.Duration
}

// Run registers the corpus at the target, keeps Workers goroutines
// issuing ops back to back until MaxOps have been drawn (cycling when
// the stream is shorter) and tallies the outcomes. The op stream itself
// is never mutated.
func Run(ctx context.Context, tgt Target, corpus *Corpus, ops []Op, opts Options) (*Report, error) {
	if len(ops) == 0 {
		return nil, errors.New("workload: empty op stream")
	}
	if opts.Workers <= 0 || opts.MaxOps <= 0 {
		return nil, errors.New("workload: need Workers and MaxOps")
	}
	if opts.OpTimeout <= 0 {
		opts.OpTimeout = 30 * time.Second
	}
	if err := tgt.RegisterTables(corpus.Tables); err != nil {
		return nil, fmt.Errorf("workload: registering corpus: %w", err)
	}

	rep := &Report{Counts: make(map[string]int)}
	var mu sync.Mutex // guards rep while workers run
	var next atomic.Int64
	var wg sync.WaitGroup
	for range opts.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= int64(opts.MaxOps) {
					return
				}
				op := ops[i%int64(len(ops))]
				if out, ok := doOne(ctx, tgt, op, opts.OpTimeout); ok {
					mu.Lock()
					rep.record(out)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return rep, nil
}

// doOne executes one op under the driver deadline. ok is false for an
// op cut short because the caller's ctx ended: booking it would count
// run shutdown as timeouts on a perfectly healthy target.
func doOne(ctx context.Context, tgt Target, op Op, timeout time.Duration) (out Outcome, ok bool) {
	opCtx, cancel := context.WithTimeout(ctx, timeout)
	out = tgt.Do(opCtx, op)
	cancel()
	if out.Class == ClassCanceled {
		return out, false // only the driver cancels ops
	}
	if ctx.Err() != nil && (out.Class == ClassTimeout || out.Class == ClassTransport) {
		return out, false // truncated by run shutdown, not by the op's own budget
	}
	return out, true
}
