package autotune

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/omp"
	"repro/internal/telemetry"
	"repro/internal/unrank"
)

// Calibration holds the overhead costs (seconds) the planner charges
// per simulated scheduling event. Both are measured, never guessed:
// the dequeue cost once per process (empty dynamic minus empty static
// loop on a two-thread team), the recovery cost per plan from the
// nest's own unranker — then overridden by the live telemetry
// histogram's p50 as soon as real chunk recoveries have been observed.
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

// Probe sizes. Every probe runs a fixed amount of work a fixed number
// of times and keeps the fastest pass, so its cost is bounded (well
// under a millisecond) and a pass that a preemption or GC landed in is
// discarded rather than averaged in.
const (
	probePasses = 4
	// dequeueThreads is the team size of the dequeue probe: two
	// threads contend for the shared counter, as a real team does.
	dequeueThreads = 2
	dequeueChunks  = 1 << 12
	recoveryRanks  = 64
)

// MinPassSec runs f passes times and returns the fastest pass in
// seconds.
func MinPassSec(passes int, f func()) float64 {
	best := math.Inf(1)
	for p := 0; p < passes; p++ {
		start := time.Now()
		f()
		if s := time.Since(start).Seconds(); s < best {
			best = s
		}
	}
	return best
}

var (
	dequeueOnce sync.Once
	dequeueSec  float64
)

// DequeueSec returns the per-chunk cost of the dynamic schedule,
// probed on first call and shared by every caller in the process: an
// empty dynamic,1 loop minus an empty static loop over dequeueChunks
// iterations, on the multi-thread engine.
func DequeueSec() float64 {
	dequeueOnce.Do(func() {
		loop := func(sched omp.Schedule) float64 {
			return MinPassSec(probePasses, func() {
				omp.ParallelForChunks(dequeueThreads, 0, dequeueChunks, sched, func(int, int64, int64) {})
			})
		}
		dyn := loop(omp.Schedule{Kind: omp.Dynamic, Chunk: 1})
		stat := loop(omp.Schedule{Kind: omp.Static})
		// Floor: an atomic RMW is never free.
		dequeueSec = math.Max((dyn-stat)/dequeueChunks, 1e-9)
	})
	return dequeueSec
}

// RecoverySec samples one closed-form recovery on b: recoveryRanks
// random ranks of the bound space, unranked once per pass, fastest
// pass per rank (the first-contact value; the live histogram takes
// over once the nest has actually run).
func RecoverySec(b *unrank.Bound) float64 {
	total := b.Total()
	if total <= 0 {
		return 0
	}
	rnd := rand.New(rand.NewSource(11))
	pcs := make([]int64, recoveryRanks)
	for i := range pcs {
		pcs[i] = 1 + rnd.Int63n(total)
	}
	idx := make([]int64, b.Depth())
	return MinPassSec(probePasses, func() {
		for _, pc := range pcs {
			_ = b.Unrank(pc, idx)
		}
	}) / recoveryRanks
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
