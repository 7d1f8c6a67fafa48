//go:build race

package nlexplain

// raceEnabled reports that the race detector is on: sync.Pool then
// drops items at random, so pooled-arena allocation counts are not
// meaningful.
const raceEnabled = true
