// Package retry paces the store's degraded-mode recovery: the first
// attempt at once, then a delay that doubles per failed attempt up to
// 100 times the first, with no jitter (one store retries its own disk,
// so there is no crowd of clients to spread out).
package retry

import (
	"context"
	"errors"
	"time"
)

// DefaultBase is the first delay when none is given; the cap is then
// 100 times it, 5s.
const DefaultBase = 50 * time.Millisecond

// Delay is the wait after failed attempt n (from 0): base, or
// DefaultBase when base is 0, doubled per attempt up to 100 times base.
func Delay(base time.Duration, n int) time.Duration {
	if base <= 0 {
		base = DefaultBase
	}
	d := base
	for ; n > 0 && d < 100*base; n-- {
		d *= 2
	}
	return min(d, 100*base)
}

// Do calls fn until it returns nil, waiting Delay(base, n) after
// failed attempt n, or until ctx is done. On cancellation it returns
// the context error joined with fn's last error (nil if fn never ran).
// It runs on the caller's goroutine and starts none.
func Do(ctx context.Context, base time.Duration, fn func() error) error {
	var last error
	for n := 0; ; n++ {
		if err := ctx.Err(); err != nil {
			return errors.Join(err, last)
		}
		if last = fn(); last == nil {
			return nil
		}
		t := time.NewTimer(Delay(base, n))
		select {
		case <-ctx.Done():
			t.Stop()
			return errors.Join(ctx.Err(), last)
		case <-t.C:
		}
	}
}
