//go:build race

package scenario

// raceEnabled reports a -race build, where sync.Pool drops a share of Puts
// on purpose and allocation counts are not meaningful.
const raceEnabled = true
