//go:build race

package liberty_test

// raceEnabled reports whether the race detector is on: it slows the
// full-size paper runs tenfold, so they skip under it.
const raceEnabled = true
