package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minBlockSamples is the fewest latencies a block needs for its median
// to count; a block cut short by the end of the window is left out.
const minBlockSamples = 5

// blockP50s returns each block's median latency, skipping blocks with
// too few samples to have one.
func blockP50s(blocks [][]float64) []float64 {
	var out []float64
	for _, b := range blocks {
		if len(b) >= minBlockSamples {
			out = append(out, median(b))
		}
	}
	return out
}

// relSpread is the distance between the first and third quartile as a
// share of the median: the run-to-run (or block-to-block) spread the
// bounds are compared against.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

func flatten(blocks [][]float64) []float64 {
	var out []float64
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}
