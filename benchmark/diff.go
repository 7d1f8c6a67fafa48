package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// byWorkload groups a report's runs, keeping the order of first
// appearance.
func byWorkload(runs []*result) (names []string, groups map[string][]*result) {
	groups = map[string][]*result{}
	for _, r := range runs {
		if groups[r.Workload] == nil {
			names = append(names, r.Workload)
		}
		groups[r.Workload] = append(groups[r.Workload], r)
	}
	return names, groups
}

// summary folds one workload's runs into a metric's median and spread:
// across the runs when there are several, else the spread the single
// run measured inside itself.
func summary(runs []*result, metric string) (mid, spread float64, vals []float64) {
	for _, r := range runs {
		v, ok := r.EndToEnd[metric]
		if !ok {
			v, ok = r.PerLayer[metric]
		}
		if ok {
			vals = append(vals, v.Value)
			spread = max(spread, v.Spread)
		}
	}
	if len(vals) > 1 {
		spread = relSpread(vals)
	}
	return median(vals), spread, vals
}

// printRepeats is the agreement table of -repeat: per workload and
// compared metric, min, median and max over the runs, and whether
// their whole range fits inside the metric's bound.
func printRepeats(runs []*result) {
	names, groups := byWorkload(runs)
	fmt.Printf("\n%-13s %-26s %12s %12s %12s %8s  %s\n", "workload", "metric", "min", "median", "max", "range", "vs bound")
	for _, name := range names {
		for _, m := range compared() {
			mid, _, vals := summary(groups[name], m.Name)
			if len(vals) == 0 || mid == 0 {
				continue
			}
			lo, hi := quantile(vals, 0), quantile(vals, 1)
			verdict := "ungated"
			switch {
			case m.Bound == 0:
			case (hi-lo)/mid > m.Bound:
				verdict = fmt.Sprintf("OUTSIDE %.0f%%", 100*m.Bound)
			default:
				verdict = fmt.Sprintf("inside %.0f%%", 100*m.Bound)
			}
			fmt.Printf("%-13s %-26s %12.4f %12.4f %12.4f %7.1f%%  %s\n", name, m.Name, lo, mid, hi, 100*(hi-lo)/mid, verdict)
		}
	}
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// diffReports compares two -out files, a the baseline and b the change.
// It refuses results that did not run the same inputs for the same
// time. Per workload and compared metric it prints the relative
// change against the bound: ok, worse, or unresolved when either
// side's own spread is wider than the bound and so cannot resolve it;
// an ungated timing shows its change and both sides' spread. The exit
// code is 0 when nothing is worse, 1 when something is, 2 when the
// files cannot be compared.
func diffReports(pathA, pathB string) int {
	a, err := loadReport(pathA)
	if err == nil {
		var b *report
		if b, err = loadReport(pathB); err == nil {
			return diff(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, err)
	return 2
}

func diff(a, b *report) int {
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintf(os.Stderr, "not comparable: seed/seconds %d/%d against %d/%d\n", a.Seed, a.Seconds, b.Seed, b.Seconds)
		return 2
	}
	names, groupsA := byWorkload(a.Runs)
	_, groupsB := byWorkload(b.Runs)
	for _, name := range names {
		if len(groupsB[name]) == 0 {
			fmt.Fprintf(os.Stderr, "not comparable: workload %s is missing from the second file\n", name)
			return 2
		}
		if fa, fb := groupsA[name][0].InputsSHA256, groupsB[name][0].InputsSHA256; fa != fb {
			fmt.Fprintf(os.Stderr, "not comparable: workload %s ran different inputs (%.12s against %.12s)\n", name, fa, fb)
			return 2
		}
	}
	code := 0
	fmt.Printf("commit %s (%s) -> commit %s (%s), seed %d, %ds windows\n", a.Commit, a.GoVersion, b.Commit, b.GoVersion, a.Seed, a.Seconds)
	fmt.Printf("%-13s %-26s %12s %12s %8s %6s  %s\n", "workload", "metric", "before", "after", "change", "bound", "verdict")
	for _, name := range names {
		for _, m := range compared() {
			va, sa, _ := summary(groupsA[name], m.Name)
			vb, sb, _ := summary(groupsB[name], m.Name)
			if va == 0 {
				continue
			}
			change := (vb - va) / va
			worse := change > m.Bound
			if m.Better == "higher" {
				worse = change < -m.Bound
			}
			verdict := "ok"
			switch {
			case m.Bound == 0:
				verdict = fmt.Sprintf("ungated (spread %.1f%%)", 100*max(sa, sb))
			case max(sa, sb) > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%%)", 100*max(sa, sb))
			case worse:
				verdict, code = "worse", 1
			}
			fmt.Printf("%-13s %-26s %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n", name, m.Name, va, vb, 100*change, 100*m.Bound, verdict)
		}
	}
	return code
}
