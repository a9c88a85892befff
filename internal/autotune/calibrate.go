package autotune

import (
	"math/rand"
	"time"

	"repro/internal/omp"
	"repro/internal/telemetry"
	"repro/internal/unrank"
)

// Calibration holds the overhead costs (seconds) the planner charges
// per simulated scheduling event. Both are measured, never guessed:
// the dequeue cost on first contact with the process (empty dynamic
// minus empty static loop), the recovery cost per plan from the nest's
// own unranker — then overridden by the live telemetry histogram's p50
// as soon as real chunk recoveries have been observed.
type Calibration struct {
	// Dequeue is the shared-counter grab plus dispatch of the dynamic
	// and guided schedules.
	Dequeue float64
	// Recovery is one §V closed-form index recovery, charged at the
	// start of every simulated chunk.
	Recovery float64
	// RecoveryMeasured reports whether Recovery came from the live
	// omp.recovery_seconds histogram (true) or the first-contact
	// sampling pass (false).
	RecoveryMeasured bool
}

// minRecoveryObservations is how many live histogram observations the
// planner requires before trusting the p50 over its own sampling pass.
const minRecoveryObservations = 32

// timeIt measures f, repeating until the total elapsed time exceeds
// minDuration, and returns seconds per call.
func timeIt(minDuration time.Duration, f func()) float64 {
	reps := 1
	for {
		start := time.Now()
		for r := 0; r < reps; r++ {
			f()
		}
		el := time.Since(start)
		if el >= minDuration || reps >= 1<<28 {
			return el.Seconds() / float64(reps)
		}
		if el <= 0 {
			reps *= 64
			continue
		}
		grow := int(float64(minDuration)/float64(el)) + 1
		if grow > 64 {
			grow = 64
		}
		reps *= grow
	}
}

// measureDequeue calibrates the per-chunk overhead of the dynamic
// schedule: an empty-body dynamic loop on one thread minus an empty
// static loop. Measured once per Tuner (first contact), the budget is
// deliberately small — the constant only tie-breaks chunk sizes.
func measureDequeue() float64 {
	const n = 1 << 15
	dyn := timeIt(4*time.Millisecond, func() {
		omp.ParallelFor(1, 0, n, omp.Schedule{Kind: omp.Dynamic}, func(int, int64) {})
	})
	stat := timeIt(4*time.Millisecond, func() {
		omp.ParallelFor(1, 0, n, omp.Schedule{Kind: omp.Static}, func(int, int64) {})
	})
	per := (dyn - stat) / n
	if per < 1e-9 {
		per = 1e-9 // floor: an atomic RMW is never free
	}
	return per
}

// measureRecovery samples one closed-form recovery over random ranks of
// the bound space (the first-contact pass; the live histogram takes
// over once the nest has actually run).
func measureRecovery(b *unrank.Bound, c int, total int64) float64 {
	if total <= 0 {
		return 0
	}
	rnd := rand.New(rand.NewSource(11))
	const nPCs = 64
	pcs := make([]int64, nPCs)
	for i := range pcs {
		pcs[i] = 1 + rnd.Int63n(total)
	}
	idx := make([]int64, c)
	sec := timeIt(2*time.Millisecond, func() {
		for _, pc := range pcs {
			_ = b.Unrank(pc, idx)
		}
	})
	return sec / nPCs
}

// recoveryP50 returns the p50 of the live per-chunk recovery histogram
// (omp.RecoverySecondsMetric, observed by the instrumented collapsed
// executor) when it has enough observations, else (0, false).
func recoveryP50(reg *telemetry.Registry) (float64, bool) {
	if reg == nil {
		return 0, false
	}
	snap := reg.Snapshot()
	h, ok := snap.Histograms[omp.RecoverySecondsMetric]
	if !ok || h.Count < minRecoveryObservations {
		return 0, false
	}
	return h.Quantile(0.5), true
}
