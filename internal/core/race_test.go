//go:build race

package core_test

// raceEnabled reports a -race build, under which the single-threaded
// population sweeps are too slow to run and have no races to find.
const raceEnabled = true
