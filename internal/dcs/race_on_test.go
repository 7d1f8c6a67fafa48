//go:build race

package dcs_test

// raceEnabled reports that the race detector is on, which slows the
// reference interpreter about sixfold: the exhaustive sweeps sample
// instead.
const raceEnabled = true
