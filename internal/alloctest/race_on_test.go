//go:build race

package alloctest

// raceEnabled reports that the race detector is on, under which
// sync.Pool drops what it is given at random.
const raceEnabled = true
