// Command wtq-bench generates reproducible query workloads, drives
// them at an explanation engine (in-process or a live wtq-server over
// HTTP) and gates on performance regressions between two runs.
//
// Subcommands:
//
//	run       drive a workload and write a JSON report
//	baseline  run with the CI-canonical settings and write bench_baseline.json
//	compare   diff a fresh report against a baseline; exit 1 on regression
//	speedup   time identical big-table queries serial vs morsel-parallel
//	skipgain  time selective big-table range counts with zone-map
//	          skipping off vs on, verify identical answers, and gate on
//	          the high-selectivity speedup
//	chaos     drive seeded fault/recovery cycles against a durable
//	          engine over a fault-injecting filesystem and gate on the
//	          degradation contract (no acked mutation lost, fail-fast
//	          while degraded, recovery within bound)
//
// Examples:
//
//	wtq-bench run -seed 1 -mix superlative -duration 2s -out report.json
//	wtq-bench run -mix bigtable -big-rows 1000000 -ops 64 -out big.json
//	wtq-bench run -mix selective -selectivity 0.001 -ops 200
//	wtq-bench run -mix mixed -ops 600 -target http://localhost:8080
//	wtq-bench baseline
//	wtq-bench compare -max-p99-ratio 1.5 bench_baseline.json report.json
//	wtq-bench speedup -rows 1000000 -exec-workers 8 -summary perf_summary.txt
//	wtq-bench skipgain -rows 1000000 -min-gain 3 -summary perf_summary.txt
//	wtq-bench chaos -seed 7 -cycles 25 -recovery-bound 10s
//
// The mixed mix (the CI gate) includes the churn family: each churn op
// exercises the full table lifecycle (register, explain, PATCH-append,
// answer, DELETE) against the versioned store, with response version
// stamps cross-checked so a stale cache or torn snapshot fails the op.
//
// The generated query set is a pure function of (seed, mix): the same
// seed yields byte-identical queries on any machine, and each report
// records the op-set hash so compare refuses to diff reports from
// different generators. CI (.github/workflows/ci.yml, job perf-gate)
// runs `run` + `compare` against the checked-in bench_baseline.json
// with generous tolerances — the gate exists to catch step-change
// regressions, not scheduler jitter.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"nlexplain/internal/dcs"
	"nlexplain/internal/engine"
	"nlexplain/internal/minisql"
	"nlexplain/internal/plan"
	"nlexplain/internal/table"
	"nlexplain/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage: wtq-bench <run|baseline|compare|speedup|skipgain|chaos> [flags]

  run       drive a workload and write a JSON report
  baseline  run with CI-canonical settings, writing bench_baseline.json
  compare   diff two reports (baseline, current); exit 1 on regression
  speedup   run big-table queries serial vs morsel-parallel, verify
            identical results and report the speedup
  skipgain  run selective big-table range counts with zone-map skipping
            off vs on, verify identical answers and report the gain
  chaos     drive seeded fault/recovery cycles against a durable engine
            and exit 1 if the degradation contract is violated

run 'wtq-bench <subcommand> -h' for flags`

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], runDefaults{seed: 1, mix: "mixed", out: "bench_report.json"}, stdout, stderr)
	case "baseline":
		// The CI-canonical run: op-count bound (not wall-clock bound) so
		// two machines execute the identical op multiset.
		return cmdRun(args[1:], runDefaults{seed: 1, mix: "mixed", ops: 600, workers: 4, out: "bench_baseline.json"}, stdout, stderr)
	case "compare":
		return cmdCompare(args[1:], stdout, stderr)
	case "speedup":
		return cmdSpeedup(args[1:], stdout, stderr)
	case "skipgain":
		return cmdSkipgain(args[1:], stdout, stderr)
	case "chaos":
		return cmdChaos(args[1:], stdout, stderr)
	case "-h", "--help", "help":
		fmt.Fprintln(stdout, usage)
		return 0
	default:
		fmt.Fprintf(stderr, "wtq-bench: unknown subcommand %q\n%s\n", args[0], usage)
		return 2
	}
}

// runDefaults parameterize cmdRun so `baseline` is `run` with the
// CI-canonical settings pre-filled.
type runDefaults struct {
	seed    int64
	mix     string
	ops     int
	workers int
	out     string
}

func cmdRun(args []string, def runDefaults, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", def.seed, "workload seed; same seed -> same queries")
	mixName := fs.String("mix", def.mix, "traffic mix, one of:"+workload.MixSummaries())
	duration := fs.Duration("duration", 0, "wall-clock bound for the run (0 = use -ops)")
	ops := fs.Int("ops", def.ops, "op-count bound for the run (0 = use -duration)")
	genOps := fs.Int("gen-ops", 512, "size of the pregenerated op set the driver cycles through")
	bigRows := fs.Int("big-rows", 0, "row count of the generated big table for bigtable-family mixes (0 = auto)")
	workers := fs.Int("workers", defInt(def.workers, 8), "closed-loop driver concurrency")
	qps := fs.Float64("qps", 0, "open-loop arrival rate (0 = closed loop)")
	opTimeout := fs.Duration("op-timeout", 30*time.Second, "driver-side deadline per op")
	target := fs.String("target", "inproc", `"inproc" or a wtq-server base URL (http://host:port)`)
	out := fs.String("out", def.out, "report output path")
	engineWorkers := fs.Int("engine-workers", 0, "in-process engine worker pool size (0 = GOMAXPROCS)")
	enginePending := fs.Int("engine-pending", 0, "in-process engine admission queue bound (0 = default)")
	engineCache := fs.Int("engine-cache", 0, "in-process engine LRU entries per cache (0 = default)")
	engineTimeout := fs.Duration("engine-timeout", 0, "in-process engine per-query timeout (0 = default)")
	engineStoreBudget := fs.Int64("engine-store-budget", 0, "in-process engine table-store byte budget (0 = unlimited)")
	dataDir := fs.String("data-dir", "", "in-process durable data directory (WAL + segments); empty = in-memory")
	requireMetrics := fs.Bool("require-metrics", false, "fail the run unless the target's /metrics scrape succeeds and is non-empty")
	selectivity := fs.Float64("selectivity", 0, "big_selective match fraction for selective-family mixes (0 = default 0.01)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *duration <= 0 && *ops <= 0 {
		*ops = 512
	}
	mix, ok := workload.MixByName(*mixName)
	if !ok {
		fmt.Fprintf(stderr, "wtq-bench: unknown mix %q (have: %s)\n", *mixName, strings.Join(workload.MixNames(), ", "))
		return 2
	}

	// Mixes drawing bigtable families auto-size TableBig to
	// workload.DefaultBigRows unless -big-rows overrides.
	rows := *bigRows
	if rows <= 0 && mix.NeedsBig() {
		rows = workload.DefaultBigRows
	}
	corpus := workload.NewCorpusSized(*seed, rows)
	gen := workload.NewGenerator(*seed, mix, corpus)
	if *selectivity > 0 {
		gen.SetSelectivity(*selectivity)
	}
	opSet := gen.Ops(*genOps)
	var tgt workload.Target
	if *target == "inproc" {
		e, err := engine.Open(engine.Options{
			Workers:         *engineWorkers,
			MaxPending:      *enginePending,
			CacheSize:       *engineCache,
			QueryTimeout:    *engineTimeout,
			StoreByteBudget: *engineStoreBudget,
			DataDir:         *dataDir,
		})
		if err != nil {
			fmt.Fprintf(stderr, "wtq-bench: opening engine: %v\n", err)
			return 1
		}
		tgt = workload.NewInProcEngine(e)
	} else {
		tgt = workload.NewHTTPTarget(strings.TrimRight(*target, "/"))
	}
	defer tgt.Close()

	rep, err := workload.Run(context.Background(), tgt, corpus, opSet, workload.Options{
		Workers:   *workers,
		Duration:  *duration,
		MaxOps:    *ops,
		QPS:       *qps,
		OpTimeout: *opTimeout,
		Seed:      *seed,
		MixName:   mix.Name,
	})
	if err != nil {
		fmt.Fprintf(stderr, "wtq-bench: %v\n", err)
		return 1
	}
	if *requireMetrics && (rep.Server == nil || rep.Server.Series == 0) {
		fmt.Fprintln(stderr, "wtq-bench: -require-metrics: target /metrics scrape failed or was empty")
		return 1
	}
	fmt.Fprintln(stdout, rep.Summary())
	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			fmt.Fprintf(stderr, "wtq-bench: writing report: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "report written to %s\n", *out)
	}
	return 0
}

func defInt(v, d int) int {
	if v > 0 {
		return v
	}
	return d
}

func cmdCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	maxP50 := fs.Float64("max-p50-ratio", 0, "max current/baseline p50 latency ratio (0 = default 1.5)")
	maxP99 := fs.Float64("max-p99-ratio", 0, "max current/baseline p99 latency ratio (0 = default 1.5)")
	minTput := fs.Float64("min-throughput-ratio", 0, "min current/baseline throughput ratio (0 = default 0.5)")
	maxErr := fs.Float64("max-error-rate-delta", 0, "max absolute error-rate increase (0 = default 0.02)")
	maxShed := fs.Float64("max-shed-rate-delta", 0, "max absolute shed+timeout-rate increase (0 = default 0.02)")
	maxCache := fs.Float64("max-cache-hit-drop", 0, "max absolute cache-hit-ratio drop (0 = default 0.15)")
	maxAllocs := fs.Float64("max-allocs-ratio", 0, "max current/baseline allocs-per-op ratio (0 = default 1.5)")
	minRows := fs.Float64("min-rows-ratio", 0, "min current/baseline scan rows/sec ratio, checked when the baseline has one (0 = default 0.5)")
	minSkipped := fs.Int64("min-morsels-skipped", 0, "min skipped-morsel count in the current run, proving zone-map skipping engaged (0 = not checked)")
	summary := fs.String("summary", "", "write a benchstat-style old-vs-new metric table to this file")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: wtq-bench compare [flags] baseline.json current.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	base, err := workload.ReadReport(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "wtq-bench: baseline: %v\n", err)
		return 2
	}
	cur, err := workload.ReadReport(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "wtq-bench: current: %v\n", err)
		return 2
	}
	tol := workload.Tolerances{
		MaxP50Ratio:        *maxP50,
		MaxP99Ratio:        *maxP99,
		MinThroughputRatio: *minTput,
		MaxErrorRateDelta:  *maxErr,
		MaxShedRateDelta:   *maxShed,
		MaxCacheHitDrop:    *maxCache,
		MaxAllocsRatio:     *maxAllocs,
		MinRowsRateRatio:   *minRows,
		MinMorselsSkipped:  *minSkipped,
	}
	vs := workload.Compare(base, cur, tol)
	fmt.Fprintf(stdout, "baseline: %s\ncurrent:  %s\n", summaryLine(base), summaryLine(cur))
	if *summary != "" {
		if err := os.WriteFile(*summary, []byte(workload.FormatComparison(base, cur)), 0o644); err != nil {
			fmt.Fprintf(stderr, "wtq-bench: writing summary: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "old-vs-new summary written to %s\n", *summary)
	}
	if len(vs) == 0 {
		fmt.Fprintln(stdout, "OK: no performance regression beyond tolerances")
		return 0
	}
	fmt.Fprintf(stdout, "FAIL: %d regression(s):\n%s\n", len(vs), workload.FormatViolations(vs))
	return 1
}

// offOn is the harness behind speedup and skipgain: both time the same
// queries under two executor configurations — a feature off, then on —
// and refuse to report a ratio unless the two answers are identical.
type offOn struct {
	what    string // report name: "speedup", "skipgain"
	header  string // first line of the report
	off, on string // what the two configurations are called in errors
	set     func(on bool)
	// counters are read around the timed on-phase; line gets their
	// deltas as proof the feature engaged.
	counters func() [2]uint64
	// line renders one case's report line, or fails the run.
	line     func(c offOnCase, offD, onD time.Duration, ratio float64, delta [2]uint64) (string, error)
	iters    int
	summary  string  // file to append the report to, if any
	floor    float64 // minimum ratio over the gated cases; 0 = report only
	floorMsg string
}

type offOnCase struct {
	name   string
	detail string // extra text for the report line
	gated  bool   // counts towards the floor
	exec   func() (any, error)
}

// run measures every case: warm both configurations (lazy column
// indexes and zone maps, pool growth), settle the heap before each
// timed phase so neither absorbs the other's GC debt, take the best of
// iters runs per side, and require reflect.DeepEqual results.
func (h *offOn) run(cases []offOnCase, stdout, stderr io.Writer) int {
	best := func(c offOnCase) (any, time.Duration, error) {
		res, err := c.exec()
		if err != nil {
			return nil, 0, err
		}
		bestD := time.Duration(math.MaxInt64)
		for i := 0; i < h.iters; i++ {
			start := time.Now()
			if res, err = c.exec(); err != nil {
				return nil, 0, err
			}
			bestD = min(bestD, time.Since(start))
		}
		return res, bestD, nil
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "wtq-bench: "+format+"\n", args...)
		return 1
	}

	var b strings.Builder
	b.WriteString(h.header)
	worst := math.Inf(1)
	for _, c := range cases {
		for _, on := range []bool{false, true} {
			h.set(on)
			if _, err := c.exec(); err != nil {
				return fail("warming %s: %v", c.name, err)
			}
		}
		runtime.GC()
		h.set(false)
		offRes, offD, err := best(c)
		if err != nil {
			return fail("%s %s run: %v", h.off, c.name, err)
		}
		runtime.GC()
		h.set(true)
		before := h.counters()
		onRes, onD, err := best(c)
		after := h.counters()
		if err != nil {
			return fail("%s %s run: %v", h.on, c.name, err)
		}
		if !reflect.DeepEqual(offRes, onRes) {
			return fail("%s: %s result differs from %s", c.name, h.on, h.off)
		}
		ratio := float64(offD) / float64(onD)
		line, err := h.line(c, offD, onD, ratio, [2]uint64{after[0] - before[0], after[1] - before[1]})
		if err != nil {
			return fail("%s: %v", c.name, err)
		}
		if c.gated {
			worst = min(worst, ratio)
		}
		b.WriteString(line)
	}

	fmt.Fprint(stdout, b.String())
	if h.summary != "" {
		f, err := os.OpenFile(h.summary, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err == nil {
			_, err = f.WriteString("\n" + b.String())
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fail("writing summary: %v", err)
		}
		fmt.Fprintf(stdout, "%s report appended to %s\n", h.what, h.summary)
	}
	if h.floor > 0 && worst < h.floor {
		fmt.Fprintf(stdout, "FAIL: %s %.2fx below required %.2fx\n", h.floorMsg, worst, h.floor)
		return 1
	}
	return 0
}

// bigTable builds the seeded corpus at the given size and returns its
// big table.
func bigTable(seed int64, rows int, stderr io.Writer) (*table.Table, bool) {
	tab, ok := workload.NewCorpusSized(seed, rows).Table(workload.TableBig)
	if !ok {
		fmt.Fprintln(stderr, "wtq-bench: sized corpus has no big table")
	}
	return tab, ok
}

// cmdSpeedup times identical compiled queries over a generated big
// table twice — once with the morsel driver pinned to one worker
// (inline) and once with -exec-workers workers — verifies the two runs
// produce bitwise-identical answers and witness cells, and reports the
// per-family speedup. The numbers are honest about the host:
// GOMAXPROCS is recorded alongside, and on a single-CPU machine the
// expected speedup is ~1x (the forked driver still runs, it just
// timeslices) — so a floor is refused there. CI appends the output to
// perf_summary.txt.
func cmdSpeedup(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("speedup", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "corpus seed; same seed -> same big table")
	rows := fs.Int("rows", 1_000_000, "row count of the generated big table")
	execWorkers := fs.Int("exec-workers", 8, "executor worker count for the parallel runs")
	iters := fs.Int("iters", 3, "timed iterations per configuration (best-of)")
	summary := fs.String("summary", "", "append the speedup report to this file")
	minSpeedup := fs.Float64("min-speedup", 0,
		"fail unless every family reaches this speedup (0 = report only; needs GOMAXPROCS >= 2)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *minSpeedup > 0 && runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintf(stderr, "wtq-bench: -min-speedup needs GOMAXPROCS >= 2 (have %d): one CPU cannot show a parallel speedup\n", runtime.GOMAXPROCS(0))
		return 2
	}
	tab, ok := bigTable(*seed, *rows, stderr)
	if !ok {
		return 1
	}

	// One representative query per bigtable family, built as ASTs so
	// the measurement isolates plan execution (no parse in the loop).
	families := []struct {
		name string
		expr dcs.Expr
	}{
		// != takes the posting-list complement scan — an O(rows) kernel
		// at any worker count. Ordered comparisons would answer from the
		// sorted column index (sublinear, never forked) and measure
		// nothing.
		{"filter", &dcs.Aggregate{Fn: dcs.Count, Arg: &dcs.Compare{Column: "Games", Op: dcs.Ne, V: table.NumberValue(500_000)}}},
		// The record set is restricted to roughly half the table so the
		// argmax takes the subset scan path rather than the full-table
		// sorted-index fast path, which would measure nothing.
		{"superlative", &dcs.ColumnValues{Column: "Nation", Records: &dcs.ArgRecords{
			Max: true, Column: "Year",
			Records: &dcs.Compare{Column: "Games", Op: dcs.Ge, V: table.NumberValue(500_000)},
		}}},
		// Two cardinality regimes: Year projects to ~40 distinct values
		// (the dedup shrinks in the morsels, the merge is trivial);
		// Games projects to ~n distinct (the serial dedup-merge
		// dominates — the forked driver's worst case).
		{"agg_narrow", &dcs.Aggregate{Fn: dcs.Sum, Arg: &dcs.ColumnValues{Column: "Year", Records: &dcs.AllRecords{}}}},
		{"agg_wide", &dcs.Aggregate{Fn: dcs.Sum, Arg: &dcs.ColumnValues{Column: "Games", Records: &dcs.AllRecords{}}}},
	}
	cases := make([]offOnCase, len(families))
	for i, fam := range families {
		c, err := dcs.Compile(fam.expr, tab)
		if err != nil {
			fmt.Fprintf(stderr, "wtq-bench: compiling %s query: %v\n", fam.name, err)
			return 1
		}
		cases[i] = offOnCase{name: fam.name, gated: true, exec: func() (any, error) {
			return c.ExecuteWith(tab, plan.Capture{})
		}}
	}

	defer plan.SetExecWorkers(plan.SetExecWorkers(1))
	h := offOn{
		what: "speedup", off: "serial", on: "parallel",
		header: fmt.Sprintf("speedup: rows=%d exec-workers=%d gomaxprocs=%d iters=%d\n",
			tab.NumRows(), *execWorkers, runtime.GOMAXPROCS(0), *iters),
		set: func(on bool) {
			if on {
				plan.SetExecWorkers(*execWorkers)
			} else {
				plan.SetExecWorkers(1)
			}
		},
		counters: func() [2]uint64 {
			_, _, morsels := plan.ExecStats()
			return [2]uint64{morsels}
		},
		line: func(c offOnCase, offD, onD time.Duration, ratio float64, delta [2]uint64) (string, error) {
			return fmt.Sprintf("  %-12s serial=%-10s parallel=%-10s speedup=%.2fx rows/sec=%.0f morsels=%d identical=true\n",
				c.name, offD.Round(time.Microsecond), onD.Round(time.Microsecond),
				ratio, float64(tab.NumRows())/onD.Seconds(), delta[0]), nil
		},
		iters: *iters, summary: *summary, floor: *minSpeedup, floorMsg: "worst-family speedup",
	}
	return h.run(cases, stdout, stderr)
}

// cmdSkipgain measures what the zone-map layer is for: identical fused
// range counts over the big table's monotone Seq column are timed with
// zone-map skipping disabled (every morsel scanned) and enabled (zones
// prove morsels row-free or all-match), answers are verified identical,
// and the speedup is reported per probe. The gated probes are the
// high-selectivity ones — a narrow sel·n-row range and a point lookup —
// where skipping must also demonstrably engage (skipped-morsel counter
// moves). The wide low-selectivity control is reported but never gated:
// its morsels genuinely hold rows, so the best zones can do there is
// the bulk-fill shortcut (~1x wall clock). CI appends the output to the
// perf-gate summary artifact.
func cmdSkipgain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("skipgain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "corpus seed; same seed -> same big table")
	rows := fs.Int("rows", 1_000_000, "row count of the generated big table")
	selectivity := fs.Float64("selectivity", workload.DefaultSelectivity, "match fraction of the high-selectivity probes")
	iters := fs.Int("iters", 3, "timed iterations per configuration (best-of)")
	summary := fs.String("summary", "", "append the skipgain report to this file")
	minGain := fs.Float64("min-gain", 0,
		"fail unless every high-selectivity probe reaches this zones-on vs zones-off speedup (0 = report only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	tab, ok := bigTable(*seed, *rows, stderr)
	if !ok {
		return 1
	}
	n := tab.NumRows()
	span := max(1, int(*selectivity*float64(n)))

	probes := []struct {
		name   string
		lo, hi int
		gated  bool
	}{
		{"narrow", (n - span) / 2, (n-span)/2 + span - 1, true},
		{"point", n / 2, n / 2, true},
		{"wide", 0, n - span - 1, false},
	}
	cases := make([]offOnCase, len(probes))
	for i, p := range probes {
		q, err := minisql.Parse(fmt.Sprintf("SELECT COUNT(Index) FROM T WHERE Seq >= %d AND Seq <= %d", p.lo, p.hi))
		if err != nil {
			fmt.Fprintf(stderr, "wtq-bench: parsing %s probe: %v\n", p.name, err)
			return 1
		}
		cases[i] = offOnCase{name: p.name, detail: fmt.Sprintf("rows=[%d,%d]", p.lo, p.hi), gated: p.gated,
			exec: func() (any, error) { return minisql.Exec(q, tab) }}
	}

	defer plan.SetZoneSkipping(plan.SetZoneSkipping(true))
	h := offOn{
		what: "skipgain", off: "zones-off", on: "zones-on",
		header: fmt.Sprintf("skipgain: rows=%d selectivity=%g zone-rows=%d iters=%d\n",
			n, *selectivity, table.ZoneRows, *iters),
		set: func(on bool) { plan.SetZoneSkipping(on) },
		counters: func() [2]uint64 {
			skipped, shortcut := plan.SkipStats()
			return [2]uint64{skipped, shortcut}
		},
		line: func(c offOnCase, offD, onD time.Duration, ratio float64, delta [2]uint64) (string, error) {
			if c.gated && delta[0] == 0 {
				return "", fmt.Errorf("zone skipping never engaged (skipped-morsel counter did not move)")
			}
			return fmt.Sprintf("  %-8s %s zones-off=%-10s zones-on=%-10s gain=%.2fx skipped=%d bulk=%d identical=true\n",
				c.name, c.detail, offD.Round(time.Microsecond), onD.Round(time.Microsecond),
				ratio, delta[0], delta[1]), nil
		},
		iters: *iters, summary: *summary, floor: *minGain, floorMsg: "worst high-selectivity gain",
	}
	return h.run(cases, stdout, stderr)
}

func cmdChaos(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "chaos seed; same seed -> same mutations and fault schedules")
	cycles := fs.Int("cycles", 10, "fault/recovery episodes to drive")
	dir := fs.String("dir", "", "engine data directory (default: a fresh temp dir, removed on success)")
	bound := fs.Duration("recovery-bound", 30*time.Second, "fail an episode whose recovery takes longer")
	muts := fs.Int("mutations", 6, "healthy mutations per cycle")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	dataDir := *dir
	if dataDir == "" {
		tmp, err := os.MkdirTemp("", "wtq-chaos-*")
		if err != nil {
			fmt.Fprintf(stderr, "wtq-bench: temp dir: %v\n", err)
			return 1
		}
		defer os.RemoveAll(tmp)
		dataDir = tmp
	}

	rep, err := workload.RunChaos(workload.ChaosOptions{
		Seed:              *seed,
		Cycles:            *cycles,
		Dir:               dataDir,
		RecoveryBound:     *bound,
		MutationsPerCycle: *muts,
	})
	if err != nil {
		fmt.Fprintf(stderr, "wtq-bench: chaos: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, rep)
	if len(rep.Violations) != 0 {
		fmt.Fprintf(stdout, "FAIL: %d contract violation(s)\n", len(rep.Violations))
		return 1
	}
	return 0
}

func summaryLine(r *workload.Report) string {
	return fmt.Sprintf("mix=%s seed=%d ops=%d p50=%.3fms p99=%.3fms tput=%.1f/s err=%d shed=%d allocs/op=%.0f",
		r.Mix, r.Seed, r.TotalOps, r.Latency.P50Ms, r.Latency.P99Ms, r.Throughput, r.Errors, r.Sheds, r.AllocsPerOp)
}
