package engine

import (
	"errors"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"syscall"
	"testing"
	"time"

	"nlexplain/internal/fault"
	"nlexplain/internal/vfs"
)

const (
	// chaosRecoveryBound fails an episode whose recovery takes longer.
	chaosRecoveryBound = 30 * time.Second
	// chaosMutationsPerCycle is the churn between faults.
	chaosMutationsPerCycle = 6
)

// chaosCycles reads the cycle count from WTQ_CHAOS_CYCLES so the CI
// fault-stress shard can crank it up (50 × -count=2 = 100 episodes)
// while the default `go test` stays quick.
func chaosCycles(t *testing.T, def int) int {
	t.Helper()
	s := os.Getenv("WTQ_CHAOS_CYCLES")
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		t.Fatalf("bad WTQ_CHAOS_CYCLES=%q", s)
	}
	return n
}

// chaosTally counts what one chaos run did. A clean run has every
// episode recovered.
type chaosTally struct {
	acked, rejected, episodes, recovered, faults int
}

// ackState is what a client that got a 2xx holds: the version and
// row count the store acknowledged as fsync-durable.
type ackState struct {
	version string
	rows    int
}

// chaosFaultRule draws one seeded sticky fault shape aimed at the WAL:
// the write and sync failures (EIO, ENOSPC, torn short writes) a dying
// disk actually produces.
func chaosFaultRule(rng *rand.Rand) *fault.Rule {
	r := &fault.Rule{Path: "wal-*.log", Count: fault.Sticky, AfterN: rng.Intn(3)}
	switch rng.Intn(4) {
	case 0:
		r.Op, r.Err = fault.OpWrite, syscall.EIO
	case 1:
		r.Op, r.Err = fault.OpWrite, syscall.ENOSPC
	case 2:
		r.Op, r.Err, r.ShortWrite = fault.OpWrite, syscall.ENOSPC, true
	default:
		r.Op, r.Err = fault.OpSync, syscall.EIO
	}
	return r
}

// runChaos drives cycles seeded fault/recovery episodes against one
// durable engine in dir and reports every breach of the degradation
// contract through t.Errorf:
//
//   - a mutation rejected by a fault or by degraded mode is never
//     treated as acked, and every acked mutation survives
//   - after the first fault the engine reports degraded health, reads
//     keep serving, and further mutations fail fast as unavailable
//   - once the filesystem heals, the episode recovers within
//     chaosRecoveryBound and the acked tables' content-hash versions are
//     exactly what the acks promised
//   - after the final cycle the directory reopens on the clean OS
//     filesystem and every acked table is intact end to end
//
// The process never crashing is implicit: any panic fails the test.
func runChaos(t *testing.T, seed int64, cycles int, dir string) chaosTally {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fs := fault.NewInject(vfs.OS, seed+1)
	e, err := Open(Options{
		Workers:            2,
		DataDir:            dir,
		CheckpointInterval: -1,
		FS:                 fs,
		RecoveryDelay:      time.Millisecond,
	})
	if err != nil {
		t.Fatalf("chaos open: %v", err)
	}
	var tally chaosTally
	var maxRecovery time.Duration
	acked := make(map[string]ackState)

	// mutate issues one seeded mutation and books the ack.
	tableN := 0
	mutate := func() error {
		var info TableInfo
		var err error
		if len(acked) > 0 && rng.Intn(2) == 0 {
			// Append to a random acked table.
			name := pickAcked(rng, acked)
			info, err = e.AppendRows(name, [][]string{{
				"city" + strconv.Itoa(rng.Intn(50)), strconv.Itoa(1900 + rng.Intn(200)),
			}})
		} else {
			tableN++
			name := "chaos_" + strconv.Itoa(tableN)
			rows := make([][]string, 1+rng.Intn(4))
			for i := range rows {
				rows[i] = []string{"city" + strconv.Itoa(rng.Intn(50)), strconv.Itoa(1900 + rng.Intn(200))}
			}
			info, err = e.RegisterRaw(name, []string{"City", "Year"}, rows)
		}
		if err != nil {
			tally.rejected++
			return err
		}
		acked[info.Name] = ackState{version: info.Version, rows: info.Rows}
		tally.acked++
		return nil
	}

	// verifyAcked cross-checks every acked table's resident version.
	verifyAcked := func(e *Engine, when string) {
		for name, a := range acked {
			tbl, version, ok := e.Table(name)
			if !ok {
				t.Errorf("%s: acked table %q lost", when, name)
				continue
			}
			if version != a.version || tbl.NumRows() != a.rows {
				t.Errorf("%s: acked table %q is (%s, %d rows), ack was (%s, %d rows)",
					when, name, version, tbl.NumRows(), a.version, a.rows)
			}
		}
	}

	for cycle := 0; cycle < cycles; cycle++ {
		tag := "cycle " + strconv.Itoa(cycle)
		// Churn while healthy.
		for i := 0; i < chaosMutationsPerCycle; i++ {
			if err := mutate(); err != nil {
				t.Errorf("%s: healthy mutation failed: %v", tag, err)
			}
		}

		// Arm this cycle's fault and push mutations until one trips it.
		fs.SetRules(chaosFaultRule(rng))
		tally.episodes++
		tripped := false
		for i := 0; i < chaosMutationsPerCycle+4; i++ {
			if err := mutate(); err != nil {
				if !errors.Is(err, ErrUnavailable) {
					t.Errorf("%s: faulted mutation class = %v, want ErrUnavailable", tag, err)
				}
				tripped = true
				break
			}
		}
		if !tripped {
			t.Errorf("%s: fault schedule never fired", tag)
			fs.Heal()
			continue
		}

		// Degraded contract: health flips, mutations fail fast, reads serve.
		if h := e.Health(); h.Status != "degraded" || h.Reason == "" {
			t.Errorf("%s: health = %+v while degraded", tag, h)
		}
		if err := mutate(); !errors.Is(err, ErrUnavailable) {
			t.Errorf("%s: fail-fast mutation = %v, want ErrUnavailable", tag, err)
		}
		verifyAcked(e, tag+" (degraded)")

		// Heal and time the recovery.
		fs.Heal()
		start := time.Now()
		deadline := start.Add(chaosRecoveryBound)
		for e.Health().Status != "ok" {
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		d := time.Since(start)
		if e.Health().Status != "ok" {
			t.Errorf("%s: not recovered within %v", tag, chaosRecoveryBound)
			continue
		}
		tally.recovered++
		maxRecovery = max(maxRecovery, d)
		verifyAcked(e, tag+" (recovered)")
		if err := mutate(); err != nil {
			t.Errorf("%s: post-recovery mutation failed: %v", tag, err)
		}
	}
	tally.faults = int(fs.Stats().Total())
	t.Logf("chaos seed=%d cycles=%d %+v max_recovery=%v", seed, cycles, tally, maxRecovery.Round(time.Microsecond))

	if err := e.Close(); err != nil {
		t.Errorf("close: %v", err)
	}

	// End-to-end: reopen the directory on the real filesystem and
	// verify every acked table came back exactly as acknowledged.
	e2, err := Open(Options{Workers: 2, DataDir: dir, CheckpointInterval: -1})
	if err != nil {
		t.Errorf("reopen: %v", err)
		return tally
	}
	defer e2.Close()
	verifyAcked(e2, "reopen")
	return tally
}

// pickAcked draws a seeded random acked table name. Map iteration
// order is not deterministic, so selection goes through a sorted copy.
func pickAcked(rng *rand.Rand, acked map[string]ackState) string {
	names := make([]string, 0, len(acked))
	for name := range acked {
		names = append(names, name)
	}
	sort.Strings(names)
	return names[rng.Intn(len(names))]
}

// TestChaosRecovery is the chaos gate: seeded fault/recovery cycles
// with zero lost acked mutations, zero crashes, every episode
// recovering in bound, and post-recovery content-hash versions
// matching the acks (including across a final clean reopen).
func TestChaosRecovery(t *testing.T) {
	cycles := chaosCycles(t, 8)
	got := runChaos(t, 4242, cycles, t.TempDir())
	if got.recovered != got.episodes || got.episodes != cycles {
		t.Fatalf("episodes=%d recovered=%d cycles=%d", got.episodes, got.recovered, cycles)
	}
	if got.acked == 0 || got.faults == 0 {
		t.Fatalf("degenerate run: %+v", got)
	}
	// The run is seeded end to end, so at the default and at the
	// fault-stress cycle count its tallies are exact.
	want, pinned := map[int]chaosTally{
		8:  {acked: 68, rejected: 16, episodes: 8, recovered: 8, faults: 8},
		50: {acked: 402, rejected: 100, episodes: 50, recovered: 50, faults: 50},
	}[cycles]
	if pinned && got != want {
		t.Fatalf("chaos tally = %+v, want %+v", got, want)
	}
}

// TestChaosDeterministicMutations: same seed, same mutation/ack/fault
// counts — the property that makes a failing seed replayable.
func TestChaosDeterministicMutations(t *testing.T) {
	a := runChaos(t, 99, 3, t.TempDir())
	b := runChaos(t, 99, 3, t.TempDir())
	if a.acked != b.acked || a.rejected != b.rejected || a.episodes != b.episodes {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}
