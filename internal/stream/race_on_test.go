//go:build race

package stream

// raceEnabled reports whether the race detector is compiled in: its
// runtime allocates more bytes for the same objects, so the re-price
// bytes budget is only held without it.
const raceEnabled = true
