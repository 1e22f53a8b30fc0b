//go:build race

package core

// raceEnabled reports a -race build, where single-goroutine property tests
// trim their grids: the detector slows them ~15x and finds nothing there.
const raceEnabled = true
