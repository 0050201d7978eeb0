//go:build !race

package trustwire

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
