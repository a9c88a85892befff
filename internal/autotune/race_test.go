//go:build race

package autotune

// raceEnabled reports a -race build: the detector slows every memory
// access several-fold, so wall-time bounds do not hold under it.
const raceEnabled = true
