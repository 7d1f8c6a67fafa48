package retry

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestDelaySequence pins the schedule: base doubled per failed
// attempt, capped at 100 times base.
func TestDelaySequence(t *testing.T) {
	ms := time.Millisecond
	want := []time.Duration{ms, 2 * ms, 4 * ms, 8 * ms, 16 * ms, 32 * ms, 64 * ms, 100 * ms, 100 * ms}
	for n, w := range want {
		if got := Delay(ms, n); got != w {
			t.Fatalf("Delay(1ms, %d) = %v, want %v", n, got, w)
		}
	}
	for n, w := range []time.Duration{96 * ms, 192 * ms, 300 * ms} {
		if got := Delay(3*ms, n+5); got != w {
			t.Fatalf("Delay(3ms, %d) = %v, want %v", n+5, got, w)
		}
	}
}

// TestDelayCap checks the delay stays at 100 times base however many
// attempts have failed.
func TestDelayCap(t *testing.T) {
	for _, n := range []int{7, 8, 60, 1000} {
		if got := Delay(time.Second, n); got != 100*time.Second {
			t.Fatalf("Delay(1s, %d) = %v, want 100s", n, got)
		}
	}
}

// TestZeroValueDefaults: base 0 selects DefaultBase (50ms), so the
// schedule is 50ms doubling to 5s.
func TestZeroValueDefaults(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		n    int
		want time.Duration
	}{{0, 50 * ms}, {1, 100 * ms}, {6, 3200 * ms}, {7, 5 * time.Second}, {100, 5 * time.Second}} {
		if got := Delay(0, tc.n); got != tc.want {
			t.Fatalf("Delay(0, %d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// TestDoRetriesUntilSuccess runs Do on real timers with a 1ms base: five
// calls, and at least the 1+2+4+8ms of waits between them.
func TestDoRetriesUntilSuccess(t *testing.T) {
	calls := 0
	start := time.Now()
	err := Do(context.Background(), time.Millisecond, func() error {
		calls++
		if calls < 5 {
			return errors.New("still down")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 5 {
		t.Fatalf("fn called %d times, want 5", calls)
	}
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Fatalf("Do took %v, want at least the 15ms of delays", el)
	}
}

// TestDoContextCancellation checks Do stops when the context dies
// between attempts and surfaces both the cancellation and the last
// attempt's error.
func TestDoContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	attemptErr := errors.New("disk still on fire")
	calls := 0
	err := Do(ctx, time.Hour, func() error {
		calls++
		cancel()
		return attemptErr
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !errors.Is(err, attemptErr) {
		t.Fatalf("err = %v, want joined attempt error", err)
	}
	if calls != 1 {
		t.Fatalf("fn called %d times, want 1", calls)
	}
}

// TestDoPreCanceled checks a dead context short-circuits before fn
// ever runs.
func TestDoPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	err := Do(ctx, 0, func() error { called = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if called {
		t.Fatal("fn ran under a pre-canceled context")
	}
}

// TestDoRealSleepCancels exercises the real timer path: cancellation
// during an hour-long wait must not hang.
func TestDoRealSleepCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tried := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- Do(ctx, time.Hour, func() error {
			select {
			case <-tried:
			default:
				close(tried)
			}
			return errors.New("down")
		})
	}()
	<-tried
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do ignored cancellation during its wait")
	}
}
