//go:build race

package table

// raceEnabled reports that the race detector is on: it changes what
// allocates.
const raceEnabled = true
