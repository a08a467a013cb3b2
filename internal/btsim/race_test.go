//go:build race

package btsim

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
