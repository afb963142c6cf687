//go:build race

package attack

// raceEnabled reports a -race build, under which long single-goroutine
// sweeps shrink: the detector has nothing to find in them, and the full
// sweep runs in the plain test build.
const raceEnabled = true
