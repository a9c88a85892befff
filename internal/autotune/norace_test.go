//go:build !race

package autotune

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
