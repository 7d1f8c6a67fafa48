// Command benchmark is the repository's benchmark: five workloads driven
// over loopback against a real wtq-server child process (end-to-end
// metrics), and an in-process pass that times each layer's public
// functions on the same inputs (per-layer metrics). See README.md.
//
// The driver's contract is
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which prints, as the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Without
// --workload every workload runs in turn.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// report is the file -out writes and -diff reads.
type report struct {
	Seed       int64     `json:"seed"`
	Seconds    int       `json:"seconds"`
	Commit     string    `json:"commit"`
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Clients    int       `json:"clients"`
	Runs       []*result `json:"runs"`
}

type config struct {
	root     string
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	var cfg config
	var traceFlag int
	var err error
	flag.StringVar(&cfg.root, "root", "", "repository root (default: found from the working directory)")
	flag.StringVar(&cfg.workload, "workload", "", "run only this workload (default: all five)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", runSeconds, "length of each workload's timed window")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: also the in-process per-layer pass, and the final line reports per-layer metrics")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the recorded spans to this file")
	out := flag.String("out", "", "write the full report (both metric sets, fingerprints, environment) to this file")
	repeat := flag.Int("repeat", 1, "run everything this many times and print min/median/max per workload and metric")
	diff := flag.Bool("diff", false, "compare two -out files given as arguments instead of running")
	printSpec := flag.Bool("print-benchmark-json", false, "print BENCHMARK.json as spec.go defines it and exit")
	flag.Parse()
	cfg.trace = traceFlag != 0

	if *printSpec {
		fmt.Println(benchmarkJSON())
		return
	}

	if *diff {
		if flag.NArg() != 2 {
			fatal("usage: -diff a.json b.json")
		}
		os.Exit(diffReports(flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments: %v", flag.Args())
	}
	names := workloadNames()
	if cfg.workload != "" {
		if workloadGens[cfg.workload] == nil {
			fatal("unknown workload %q; have %s", cfg.workload, strings.Join(names, ", "))
		}
		names = []string{cfg.workload}
	}
	if cfg.seconds < 1 || *repeat < 1 {
		fatal("-seconds and -repeat must be at least 1")
	}
	if cfg.root == "" {
		cfg.root = findRoot()
	}
	if cfg.root, err = filepath.Abs(cfg.root); err != nil {
		fatal("%v", err)
	}

	// Everything a run creates lives under one directory inside the
	// checkout's build dir, removed on exit, on failure and on SIGINT.
	// The server binary sits beside it and is kept: rebuilding it for
	// each of the driver's hundred-odd runs would cost more than the runs.
	build := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		fatal("%v", err)
	}
	sweepStale(filepath.Join(build, "tmp"))
	tmp, err := os.MkdirTemp(filepath.Join(build, "tmp"), "run-")
	if err != nil {
		fatal("%v", err)
	}
	exit := func(code int) {
		stopAllServers()
		os.RemoveAll(tmp)
		os.Exit(code)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "interrupted")
		exit(130)
	}()

	bin, err := buildServer(cfg.root, build)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}

	rep := &report{
		Seed: cfg.seed, Seconds: cfg.seconds, Commit: commitOf(cfg.root),
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clients,
	}
	ok := true
	for r := 0; r < *repeat; r++ {
		for _, name := range names {
			res, err := runWorkload(cfg, bin, tmp, name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				exit(1)
			}
			rep.Runs = append(rep.Runs, res)
			ok = ok && res.Correct
			printResult(res)
		}
	}
	if *repeat > 1 {
		printRepeats(rep.Runs)
	}
	if *out != "" {
		b, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
	}
	if cfg.trace && *traceOut != "" {
		if err := writeTraces(*traceOut, rep.Runs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
	}
	// The contract's result line: the last run's, last on standard output.
	last := rep.Runs[len(rep.Runs)-1]
	shown := last.EndToEnd
	if cfg.trace {
		shown = last.PerLayer
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]valueUnit{}
	for name, m := range shown {
		metrics[name] = valueUnit{m.Value, m.Unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": last.Correct, "attempted": last.Attempted, "failed": last.Failed, "metrics": metrics,
	})
	fmt.Println(string(line))
	if !ok {
		exit(1)
	}
	exit(0)
}

// sweepStale removes what runs that were killed outright left behind.
// No run lasts half an hour, so anything that old has no owner.
func sweepStale(tmpRoot string) {
	entries, _ := os.ReadDir(tmpRoot) // nothing to sweep if it cannot be read
	for _, e := range entries {
		if info, err := e.Info(); err == nil && time.Since(info.ModTime()) > 30*time.Minute {
			os.RemoveAll(filepath.Join(tmpRoot, e.Name()))
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return names
}

// findRoot locates the repository from the working directory: `go run
// -C benchmark .` runs the program inside benchmark/, run.sh and the
// driver run it from the root.
func findRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		fatal("%v", err)
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "wtq-server", "main.go")); err == nil {
			return dir
		}
	}
	fatal("cannot find cmd/wtq-server from %s; pass -root", wd)
	return ""
}

// buildServer compiles cmd/wtq-server from the checkout's source. go
// build leaves an up-to-date binary alone, so only the first run of a
// checkout pays for it.
func buildServer(root, build string) (string, error) {
	bin := filepath.Join(build, "bin", "wtq-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/wtq-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/wtq-server: %v\n%s", err, out)
	}
	return bin, nil
}

func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// runWorkload generates one workload's inputs and runs its passes.
func runWorkload(cfg config, bin, tmp, name string) (*result, error) {
	start := time.Now()
	w := workloadGens[name](cfg.seed)
	dir, err := os.MkdirTemp(tmp, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// The traced run is about where time goes, not about agreeing with
	// the next run: one server and one recovery are enough there.
	servers, recoveries := 5, 3
	if cfg.trace {
		servers, recoveries = 1, 1
	}
	res, err := newLoopback(bin, dir, w).run(cfg.seconds, servers, recoveries)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := tracePass(dir, w, res); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "%s: done in %.1fs\n", name, time.Since(start).Seconds())
	return res, nil
}

func printResult(r *result) {
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT"
	}
	fmt.Printf("== %s  inputs %.12s  %s: %d attempted, %d failed\n", r.Workload, r.InputsSHA256, verdict, r.Attempted, r.Failed)
	for _, msg := range r.Failures {
		fmt.Printf("   FAILED %s\n", msg)
	}
	for _, m := range endToEnd {
		if v, ok := r.EndToEnd[m.Name]; ok {
			fmt.Printf("   %-28s %14.4f %-8s (bound %2.0f%%, spread %4.1f%%)\n", m.Name, v.Value, v.Unit, 100*m.Bound, 100*v.Spread)
		}
	}
	for _, m := range perLayer {
		if v, ok := r.PerLayer[m.Name]; ok {
			spread := ""
			if v.Spread != 0 {
				spread = fmt.Sprintf(" (spread %4.1f%%)", 100*v.Spread)
			}
			fmt.Printf("   %-34s %14.4f %-8s%s\n", m.Name, v.Value, v.Unit, spread)
		}
	}
}
