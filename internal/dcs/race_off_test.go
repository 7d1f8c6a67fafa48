//go:build !race

package dcs_test

const raceEnabled = false
