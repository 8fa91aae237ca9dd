//go:build !race

package stream

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
