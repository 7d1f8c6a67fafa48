package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"syscall"
	"time"

	"nlexplain/internal/engine"
	"nlexplain/internal/fault"
	"nlexplain/internal/retry"
)

// ChaosOptions configures a seeded fault/recovery chaos run: churn
// mutations against a durable engine whose filesystem injects a fresh
// fault schedule each cycle, asserting the degradation contract end to
// end.
type ChaosOptions struct {
	// Seed makes the whole run — mutation stream and fault schedules —
	// deterministic.
	Seed int64
	// Cycles is how many fault/recovery episodes to drive (default 10).
	Cycles int
	// Dir is the engine's data directory. Required.
	Dir string
}

const (
	// chaosRecoveryBound fails an episode whose recovery takes longer.
	chaosRecoveryBound = 30 * time.Second
	// chaosMutationsPerCycle is the churn between faults.
	chaosMutationsPerCycle = 6
)

// ChaosReport is the outcome of a RunChaos run. A clean run has every
// episode recovered and an empty Violations list.
type ChaosReport struct {
	Seed        int64
	Cycles      int
	AckedMuts   int
	Rejected    int
	Episodes    int
	Recovered   int
	MaxRecovery time.Duration
	Faults      uint64
	Violations  []string
}

func (r *ChaosReport) violatef(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// ackState is what a client that got a 2xx holds: the version and
// generation the store acknowledged as fsync-durable.
type ackState struct {
	version string
	gen     uint64
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

// RunChaos drives Cycles seeded fault/recovery episodes against one
// durable engine and verifies the degradation contract on each:
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
// The process never crashing is implicit: any panic fails the caller.
func RunChaos(opts ChaosOptions) (*ChaosReport, error) {
	if opts.Cycles <= 0 {
		opts.Cycles = 10
	}
	if opts.Dir == "" {
		return nil, errors.New("workload: chaos needs a data dir")
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	fs := fault.NewInject(fault.OS, opts.Seed+1)
	e, err := engine.Open(engine.Options{
		Workers:            2,
		DataDir:            opts.Dir,
		CheckpointInterval: -1,
		FS:                 fs,
		RecoveryBackoff:    retry.Backoff{Base: time.Millisecond, Max: 20 * time.Millisecond},
	})
	if err != nil {
		return nil, fmt.Errorf("workload: chaos open: %w", err)
	}
	rep := &ChaosReport{Seed: opts.Seed, Cycles: opts.Cycles}
	acked := make(map[string]ackState)

	// mutate issues one seeded mutation and books the ack.
	tableN := 0
	mutate := func() error {
		var info engine.TableInfo
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
			rep.Rejected++
			return err
		}
		acked[info.Name] = ackState{version: info.Version, gen: info.Generation, rows: info.Rows}
		rep.AckedMuts++
		return nil
	}

	// verifyAcked cross-checks every acked table's resident version.
	verifyAcked := func(when string) {
		for name, a := range acked {
			t, version, ok := e.Table(name)
			if !ok {
				rep.violatef("cycle %s: acked table %q lost", when, name)
				continue
			}
			if version != a.version || t.NumRows() != a.rows {
				rep.violatef("cycle %s: acked table %q is (%s, %d rows), ack was (%s, %d rows)",
					when, name, version, t.NumRows(), a.version, a.rows)
			}
		}
	}

	for cycle := 0; cycle < opts.Cycles; cycle++ {
		tag := strconv.Itoa(cycle)
		// Churn while healthy.
		for i := 0; i < chaosMutationsPerCycle; i++ {
			if err := mutate(); err != nil {
				rep.violatef("cycle %s: healthy mutation failed: %v", tag, err)
			}
		}

		// Arm this cycle's fault and push mutations until one trips it.
		fs.SetRules(chaosFaultRule(rng))
		rep.Episodes++
		tripped := false
		for i := 0; i < chaosMutationsPerCycle+4; i++ {
			if err := mutate(); err != nil {
				if !errors.Is(err, engine.ErrUnavailable) {
					rep.violatef("cycle %s: faulted mutation class = %v, want ErrUnavailable", tag, err)
				}
				tripped = true
				break
			}
		}
		if !tripped {
			rep.violatef("cycle %s: fault schedule never fired", tag)
			fs.Heal()
			continue
		}

		// Degraded contract: health flips, mutations fail fast, reads serve.
		if h := e.Health(); h.Status != "degraded" || h.Reason == "" {
			rep.violatef("cycle %s: health = %+v while degraded", tag, h)
		}
		if err := mutate(); !errors.Is(err, engine.ErrUnavailable) {
			rep.violatef("cycle %s: fail-fast mutation = %v, want ErrUnavailable", tag, err)
		}
		verifyAcked(tag + " (degraded)")

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
			rep.violatef("cycle %s: not recovered within %v", tag, chaosRecoveryBound)
			continue
		}
		rep.Recovered++
		if d > rep.MaxRecovery {
			rep.MaxRecovery = d
		}
		verifyAcked(tag + " (recovered)")
		if err := mutate(); err != nil {
			rep.violatef("cycle %s: post-recovery mutation failed: %v", tag, err)
		}
	}
	rep.Faults = fs.Stats().Total()

	if err := e.Close(); err != nil {
		rep.violatef("close: %v", err)
	}

	// End-to-end: reopen the directory on the real filesystem and
	// verify every acked table came back exactly as acknowledged.
	e2, err := engine.Open(engine.Options{Workers: 2, DataDir: opts.Dir, CheckpointInterval: -1})
	if err != nil {
		rep.violatef("reopen: %v", err)
		return rep, nil
	}
	defer e2.Close()
	for name, a := range acked {
		t, version, ok := e2.Table(name)
		if !ok {
			rep.violatef("reopen: acked table %q lost", name)
			continue
		}
		if version != a.version || t.NumRows() != a.rows {
			rep.violatef("reopen: acked table %q is (%s, %d rows), ack was (%s, %d rows)",
				name, version, t.NumRows(), a.version, a.rows)
		}
	}
	return rep, nil
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

// String renders the report for test logs.
func (r *ChaosReport) String() string {
	s := fmt.Sprintf("chaos seed=%d cycles=%d acked=%d rejected=%d episodes=%d recovered=%d max_recovery=%v faults=%d",
		r.Seed, r.Cycles, r.AckedMuts, r.Rejected, r.Episodes, r.Recovered, r.MaxRecovery.Round(time.Microsecond), r.Faults)
	for _, v := range r.Violations {
		s += "\n  VIOLATION: " + v
	}
	return s
}
