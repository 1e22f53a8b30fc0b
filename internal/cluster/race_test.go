//go:build race

package cluster

// raceEnabled reports a -race build, where single-goroutine chip-scale tests
// run only the leg that matters: the detector slows them ~15x and finds
// nothing in serial solve code.
const raceEnabled = true
