//go:build !race

package ccl_test

const raceEnabled = false
