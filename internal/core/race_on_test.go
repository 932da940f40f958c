//go:build race

package core

// raceEnabled reports a race-detector build, where sync.Pool drops
// items at random: allocation counts there are not the program's.
const raceEnabled = true
