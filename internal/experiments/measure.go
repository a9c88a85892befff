// Package experiments regenerates every figure of the paper's evaluation
// (§VII):
//
//	Fig. 2  — per-thread load distribution of schedule(static) on the
//	          correlation triangle;
//	Fig. 8  — curves of r(i,0,0) − pc for the tetrahedral nest;
//	Fig. 9  — gains of collapsing vs outer-loop static and dynamic
//	          parallelization, for all kernels;
//	Fig. 10 — serial control overhead of 12 index recoveries.
//
// Fig. 10 is measured directly (serial runs). Fig. 9 combines measured
// per-unit costs with the discrete-event schedule simulator: the paper's
// 12 hardware threads are replaced by 12 simulated threads whose per-unit
// work is exact (computed from the kernels' work models) and whose unit
// cost, dynamic-dequeue overhead and recovery cost are calibrated on the
// host. An optional "real" mode also runs the goroutine runtime and
// reports wall-clock times (meaningful only when GOMAXPROCS is at least
// the thread count).
package experiments

import (
	"time"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/unrank"
)

// Calibration holds host-measured unit costs (seconds).
type Calibration struct {
	// Dequeue is the per-chunk cost of dynamic scheduling (one atomic
	// fetch-add plus dispatch), measured on a two-thread team.
	Dequeue float64
	// Recovery is the cost of one full closed-form index recovery
	// (Unrank) for the given collapse result.
	Recovery float64
	// Increment is the cost of one lexicographic incrementation.
	Increment float64
}

// secPerCallOver measures f, repeating until the total elapsed time
// exceeds minDuration, and returns seconds per call. It times the
// overhead, compile and invert suites, whose MinTime option sets the
// duration; the calibration probes below run fixed pass counts.
func secPerCallOver(minDuration time.Duration, f func()) float64 {
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

// Increment probe size: up to incrementSteps increments from the first
// tuple per pass, fastest of incrementPasses passes.
const (
	incrementSteps  = 1 << 15
	incrementPasses = 4
)

// measureIncrement calibrates one lexicographic incrementation.
func measureIncrement(b *unrank.Bound) float64 {
	total := b.Total()
	if total < 2 {
		return 0
	}
	idx := make([]int64, b.Depth())
	span := min(total-1, incrementSteps)
	return autotune.MinPassSec(incrementPasses, func() {
		if err := b.Unrank(1, idx); err != nil {
			return
		}
		for s := int64(0); s < span; s++ {
			b.Increment(idx)
		}
	}) / float64(span)
}

// Calibrate performs all host measurements for a collapse result. The
// dequeue and recovery costs come from the autotune planner's probes,
// so the figures and the planner share one calibration.
func Calibrate(res *core.Result, params map[string]int64) (Calibration, error) {
	b, err := res.Unranker.Bind(params)
	if err != nil {
		return Calibration{}, err
	}
	return Calibration{
		Dequeue:   autotune.DequeueSec(),
		Recovery:  autotune.RecoverySec(b),
		Increment: measureIncrement(b),
	}, nil
}

// MeasureSerial times one full sequential execution of a kernel instance
// (resetting it first).
func MeasureSerial(inst kernels.Instance) float64 {
	inst.Reset()
	start := time.Now()
	kernels.RunSeq(inst)
	return time.Since(start).Seconds()
}

// buildResult is a convenience wrapper caching nothing; collapse
// construction is cheap relative to kernel runs.
func buildResult(k *kernels.Kernel) (*core.Result, error) {
	return core.Collapse(k.Nest, k.Collapse, unrank.Options{})
}
