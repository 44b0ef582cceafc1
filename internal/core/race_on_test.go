//go:build race

package core

// raceEnabled reports a -race build, whose instrumented runtime makes
// allocation counts differ from a normal build's.
const raceEnabled = true
