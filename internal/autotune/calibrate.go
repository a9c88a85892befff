package autotune

import (
	"math"
	"math/rand"
	"sort"
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

// Probe sizes. Every probe runs a fixed amount of work for a fixed
// number of rounds and keeps the fastest, so its cost is bounded (well
// under a millisecond) and a round that a preemption or GC landed in is
// discarded rather than averaged in.
const (
	probeRounds = 4
	// dequeueThreads is the team size of the dequeue probe: two
	// threads contend for the shared counter, as a real team does.
	dequeueThreads = 2
	dequeueChunks  = 1 << 12
	recoveryRanks  = 64
)

// Alternate is the one timing rule for every timed comparison: it
// times the alternatives in alternation for rounds rounds, in order
// 0…n-1 in even rounds and n-1…0 in odd ones, so a slow spell of the
// host lands on every alternative alike. Each sample repeats its
// alternative until minTime has passed (a single call when minTime is
// 0; the repeat count carries over to later rounds) and records
// seconds per call. reset, when non-nil, runs untimed before every
// sample with the alternative's index. secs[r][a] is alternative a's
// sample in round r; callers report Best per alternative and judge a
// comparison by MedianRatio.
func Alternate(rounds int, minTime time.Duration, reset func(alt int), alts ...func()) (secs [][]float64) {
	reps := make([]int, len(alts))
	for a := range reps {
		reps[a] = 1
	}
	secs = make([][]float64, max(rounds, 1))
	for r := range secs {
		secs[r] = make([]float64, len(alts))
		for k := range alts {
			a := k
			if r%2 == 1 {
				a = len(alts) - 1 - k
			}
			for {
				if reset != nil {
					reset(a)
				}
				start := time.Now()
				for i := 0; i < reps[a]; i++ {
					alts[a]()
				}
				el := time.Since(start)
				if el >= minTime || reps[a] >= 1<<28 {
					secs[r][a] = el.Seconds() / float64(reps[a])
					break
				}
				grow := 64
				if el > 0 {
					grow = min(int(minTime/el)+1, 64)
				}
				reps[a] *= grow
			}
		}
	}
	return secs
}

// Best is alternative a's fastest sample, the least disturbed one.
func Best(secs [][]float64, a int) float64 {
	best := math.Inf(1)
	for _, round := range secs {
		best = min(best, round[a])
	}
	return best
}

// MedianRatio is the median over rounds of alternative num's sample
// over alternative den's sample in the same round.
func MedianRatio(secs [][]float64, num, den int) float64 {
	ratios := make([]float64, len(secs))
	for r, round := range secs {
		ratios[r] = round[num] / round[den]
	}
	sort.Float64s(ratios)
	m := len(ratios) / 2
	if len(ratios)%2 == 0 {
		return (ratios[m-1] + ratios[m]) / 2
	}
	return ratios[m]
}

var (
	dequeueOnce sync.Once
	dequeueSec  float64
)

// DequeueSec returns the per-chunk cost of the dynamic schedule,
// probed on first call and shared by every caller in the process: an
// empty dynamic,1 loop minus an empty static loop over dequeueChunks
// iterations, alternated on the multi-thread engine.
func DequeueSec() float64 {
	dequeueOnce.Do(func() {
		loop := func(sched omp.Schedule) func() {
			return func() {
				omp.ParallelForChunks(dequeueThreads, 0, dequeueChunks, sched, func(int, int64, int64) {})
			}
		}
		secs := Alternate(probeRounds, 0, nil,
			loop(omp.Schedule{Kind: omp.Dynamic, Chunk: 1}), loop(omp.Schedule{Kind: omp.Static}))
		// A difference, not a ratio: the static loop costs about 2% of
		// the dynamic one, so a within-round ratio would carry the
		// static loop's jitter fifty-fold. The fastest rounds are the
		// least disturbed. Floor: an atomic RMW is never free.
		dequeueSec = math.Max((Best(secs, 0)-Best(secs, 1))/dequeueChunks, 1e-9)
	})
	return dequeueSec
}

// RecoverySec samples one closed-form recovery on b: recoveryRanks
// random ranks of the bound space, unranked once per round, fastest
// round per rank (the first-contact value; the live histogram takes
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
	return Best(Alternate(probeRounds, 0, nil, func() {
		for _, pc := range pcs {
			_ = b.Unrank(pc, idx)
		}
	}), 0) / recoveryRanks
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
