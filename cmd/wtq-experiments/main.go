// Command wtq-experiments regenerates the paper's evaluation: every
// table (4, 5, 6, 7, 9, 10) and every figure (1, 3-9, 11-22), printing
// paper values next to measured values.
//
// Usage:
//
//	wtq-experiments                 # all tables + figures, reduced scale
//	wtq-experiments -full           # paper-scale counts (slow)
//	wtq-experiments -table 6        # one table
//	wtq-experiments -table 7        # generation times, and what each candidate family contributes
//	wtq-experiments -figure 9       # one figure
package main

import (
	"flag"
	"fmt"
	"os"

	"nlexplain/internal/experiments"
)

func main() {
	full := flag.Bool("full", false, "run at the paper's sample sizes (slow)")
	seed := flag.Int64("seed", 2019, "experiment seed")
	tableN := flag.Int("table", 0, "run only this paper table (4,5,6,7,8,9,10)")
	figureN := flag.Int("figure", 0, "render only this paper figure")
	flag.Parse()

	cfg := experiments.Config{Seed: *seed, Full: *full}

	if *figureN != 0 {
		s, err := experiments.RenderFigure(*figureN)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wtq-experiments:", err)
			os.Exit(1)
		}
		fmt.Println(s)
		return
	}

	if *tableN == 10 {
		fmt.Println(experiments.FormatTable10(experiments.RunTable10()))
		return
	}

	fmt.Println("building experiment environment (dataset + baseline parser training)...")
	env := experiments.NewEnv(cfg)
	fmt.Printf("dataset: %d train / %d test examples on %d + %d disjoint tables\n\n",
		len(env.Dataset.Train), len(env.Dataset.Test),
		len(env.Dataset.TrainTables), len(env.Dataset.TestTables))

	runAll := *tableN == 0
	if runAll || *tableN == 4 {
		fmt.Println(env.RunTable4())
	}
	if runAll || *tableN == 5 {
		fmt.Println(env.RunTable5())
	}
	if runAll || *tableN == 6 {
		fmt.Println(env.RunTable6())
	}
	if runAll || *tableN == 7 {
		fmt.Println(env.RunTable7())
		fmt.Println(env.RunCandidateFamilies(7))
	}
	if runAll || *tableN == 8 {
		fmt.Println(experiments.FormatTable8(env.RunTable8(6)))
	}
	if runAll || *tableN == 9 {
		fmt.Println(env.RunTable9())
	}
	if runAll {
		fmt.Println(experiments.FormatTable10(experiments.RunTable10()))
		for _, n := range experiments.FigureNumbers() {
			s, err := experiments.RenderFigure(n)
			if err != nil {
				continue
			}
			fmt.Println(s)
		}
	}
}
