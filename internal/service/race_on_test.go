//go:build race

package service_test

// raceEnabled reports a -race build, whose runtime randomly drops sync.Pool
// puts and so makes allocation counts of pooled paths non-deterministic.
const raceEnabled = true
