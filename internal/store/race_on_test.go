//go:build race

package store

// raceEnabled reports that the race detector is on: it changes what
// the heap holds, so allocation measurements mean nothing.
const raceEnabled = true
