//go:build !race

package nlexplain

const raceEnabled = false
