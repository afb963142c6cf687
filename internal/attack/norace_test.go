//go:build !race

package attack

const raceEnabled = false
