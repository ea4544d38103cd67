//go:build !race

package liberty_test

const raceEnabled = false
