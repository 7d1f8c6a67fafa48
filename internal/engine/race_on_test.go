//go:build race

package engine

// raceEnabled reports that the race detector is on: it changes what the
// heap holds and sync.Pool drops items at random, so heap and
// allocation measurements mean nothing.
const raceEnabled = true
