package engine

import (
	"context"
	"testing"

	"nlexplain/internal/metric"
)

// execCounts reads the engine's morsel-executor series: parallel runs,
// serial runs, morsels handed out, morsels skipped from zone maps, and
// the morsels its latency histogram timed.
func execCounts(t *testing.T, e *Engine) [5]uint64 {
	t.Helper()
	h, _ := e.Metrics().Get("engine.exec.morsel.latency.seconds")
	return [5]uint64{
		counter(t, e, "engine.exec.parallel.runs"),
		counter(t, e, "engine.exec.serial.runs"),
		counter(t, e, "engine.exec.parallel.morsels"),
		counter(t, e, "engine.exec.morsels.skipped"),
		h.(*metric.Histogram).Snapshot().Count(),
	}
}

// TestEngineExecCounts pins what every kind of plan execution an engine
// runs adds to its exec.* series, over a three-morsel table: an answer
// (a range over a column that spells a NaN, so it scans under zone
// verdicts, and no zone can hold a match, so every morsel is skipped),
// an explain whose Section 5.3 sample runs each operand of its
// difference, a question's candidate generation for the parse cache,
// and the same generation again for a deeper top_k, which the cache
// does not keep. An execution that ran outside the engine's executor
// would move these numbers. With one worker nothing may fork.
func TestEngineExecCounts(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	for _, tc := range []struct {
		workers int
		want    [5]uint64
	}{
		{8, [5]uint64{9, 269, 27, 3, 27}},
		{1, [5]uint64{0, 278, 0, 3, 0}},
	} {
		e := New(Options{ExecWorkers: tc.workers})
		e.RegisterTable(bigTable(t, 70_000))
		// One cell spelling NaN leaves Year without a sorted index, so
		// its ranges scan under zone verdicts.
		if _, err := e.AppendRows("big", [][]string{{"Fiji", "0", "nan"}}); err != nil {
			t.Fatal(err)
		}
		before := execCounts(t, e)
		if _, _, err := e.ExplainAnswer(ctx, "big", "count(Year<0)"); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Explain(ctx, "big", "sub(count(Nation!=Greece), count(Nation.France))"); err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{7, 12} {
			if _, err := e.ParseQuestion(ctx, "big", "how many more games did Greece have than France", k); err != nil {
				t.Fatal(err)
			}
		}
		got := execCounts(t, e)
		for i := range got {
			got[i] -= before[i]
		}
		if got != tc.want {
			t.Errorf("ExecWorkers %d: parallel, serial, morsels, skipped, timed = %v, want %v", tc.workers, got, tc.want)
		}
	}
}

// TestEnginesDoNotShareExecutor builds a one-worker and an eight-worker
// engine over the same big table, in both orders: each reports its own
// worker cap, only the second forks, and neither engine's exec series
// move on the other's requests.
func TestEnginesDoNotShareExecutor(t *testing.T) {
	t.Parallel()
	tab := bigTable(t, 70_000)
	for _, order := range [][2]int{{1, 8}, {8, 1}} {
		engines := map[int]*Engine{}
		for _, w := range order {
			engines[w] = New(Options{ExecWorkers: w})
			engines[w].RegisterTable(tab)
		}
		for i, w := range order {
			e, other := engines[w], engines[order[1-i]]
			if got := counter(t, e, "engine.exec.workers"); got != uint64(w) {
				t.Errorf("engine with ExecWorkers %d reports %d workers", w, got)
			}
			still := execCounts(t, other)
			if _, _, err := e.ExplainAnswer(context.Background(), "big", "count(Nation!=Greece)"); err != nil {
				t.Fatal(err)
			}
			if got := execCounts(t, other); got != still {
				t.Errorf("order %v: a request to the %d-worker engine moved the other's series from %v to %v", order, w, still, got)
			}
		}
		if a, b := execCounts(t, engines[1]), execCounts(t, engines[8]); a[0] != 0 || a[1] != 1 || b[0] != 1 || b[2] != 3 || b[4] != 3 {
			t.Errorf("order %v: one-worker engine %v, eight-worker engine %v; want one serial run and one forked run of 3 timed morsels", order, a, b)
		}
	}
}
