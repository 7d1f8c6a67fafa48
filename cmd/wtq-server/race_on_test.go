//go:build race

package main

// raceEnabled reports that the race detector is on: sync.Pool then
// drops items at random, so the pooled response buffer's allocation
// counts are not meaningful.
const raceEnabled = true
