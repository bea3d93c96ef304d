//go:build race

package dataset

// raceEnabled reports whether the tests run under the race detector,
// which instruments allocations and slows generation roughly tenfold.
const raceEnabled = true
