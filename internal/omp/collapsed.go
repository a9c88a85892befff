package omp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/unrank"
)

// CollapsedFor executes the collapsed iteration space of r (pc =
// 1..Total) in parallel. Within each schedule chunk the §V scheme is
// used: the costly closed-form recovery runs once at the first iteration
// of the chunk, and subsequent index tuples come from lexicographic
// incrementation, mirroring the code of paper Figs. 4 and §V.
//
// Each worker owns a private unrank.Bound (the OpenMP codes privatize the
// recovery state the same way). body must be safe for concurrent
// invocation on distinct iterations; the idx slice is reused per worker.
func CollapsedFor(r *core.Result, params map[string]int64, threads int, sched Schedule,
	body func(tid int, idx []int64)) error {
	return CollapsedForCtx(nil, r, params, threads, sched, body)
}

// CollapsedForCtx is CollapsedFor with cooperative cancellation: ctx is
// checked at every chunk boundary (never inside a chunk, so the §V
// recovery/incrementation fast path is untouched), and a canceled
// context stops the team with an error wrapping faults.ErrCanceled. A
// panic in body is captured with its stack and returned as a
// *faults.PanicError; the process survives and the team drains cleanly.
func CollapsedForCtx(ctx context.Context, r *core.Result, params map[string]int64,
	threads int, sched Schedule, body func(tid int, idx []int64)) error {
	e, err := newEngine(r, params, threads, sched)
	if err != nil {
		return err
	}
	_, err = e.run(ctx, nil, false, tupleStep(body))
	return err
}

// CollapsedForRanges executes the collapsed space with the range-batched
// §V engine: each chunk performs one costly recovery, then the body
// receives maximal flat innermost runs instead of single iterations.
// body(tid, pc, prefix, lo, hi) covers collapsed ranks
// pc .. pc+(hi-lo)-1, whose tuples share the outer prefix (levels
// 0..C-2; slice reused per worker, do not retain) and take every
// innermost value lo <= i < hi — so the caller's innermost loop is a
// plain counted `for i := lo; i < hi; i++`, with bounds re-evaluated
// only on outer-level carries. Runs never cross chunk boundaries, so pc
// accounting (and therefore scheduling) is exactly that of CollapsedFor.
func CollapsedForRanges(r *core.Result, params map[string]int64, threads int, sched Schedule,
	body func(tid int, pc int64, prefix []int64, lo, hi int64)) error {
	e, err := newEngine(r, params, threads, sched)
	if err != nil {
		return err
	}
	_, err = e.run(nil, nil, false, rangeStep(nil, body))
	return err
}

// CollapsedForRangesStats is CollapsedForRanges returning the engine's
// aggregated counters (runs, carries, iterations) and publishing them on
// tel (which may be nil): "omp.range_batches", "omp.range_carries" and
// "omp.iterations". The counters make the engine's economy observable:
// batches ≈ carries + threads·chunks, and iterations/batches is the mean
// flat-run length the body enjoyed. The run is instrumented at chunk
// granularity like CollapsedForChunkTelemetryCtx.
func CollapsedForRangesStats(r *core.Result, params map[string]int64, threads int, sched Schedule,
	tel *telemetry.Registry, body func(tid int, pc int64, prefix []int64, lo, hi int64)) (core.RangeStats, error) {
	var agg core.RangeStats
	e, err := newEngine(r, params, threads, sched)
	if err != nil {
		return agg, err
	}
	stats := make([]core.RangeStats, len(e.bounds))
	_, runErr := e.run(nil, tel, true, rangeStep(stats, body))
	for _, s := range stats {
		agg.Add(s)
	}
	tel.Counter("omp.range_batches").Add(agg.Batches)
	tel.Counter("omp.range_carries").Add(agg.Carries)
	return agg, runErr
}

// RecoverySecondsMetric names the histogram into which the instrumented
// collapsed executor observes each chunk's index-recovery time. The
// autotune planner reads its p50 back as live calibration, so writer
// and reader share this one name.
const RecoverySecondsMetric = "omp.recovery_seconds"

// CollapsedForChunkTelemetryCtx is the instrumented collapsed executor:
// it runs the §V scheme like CollapsedForCtx while recording, per chunk,
// its duration, its recovery time, the live per-worker gauges and the
// worker's unrank statistics, and returns the per-thread breakdown.
// Nothing is timed inside a chunk, so the body loop runs at CollapsedFor
// speed. When tel is non-nil, every chunk additionally becomes a
// "chunk"-category trace event (named after the schedule kind) and the
// team-wide counters are published on the registry, including the
// robustness counters "omp.panics_recovered" (worker panics captured as
// errors) and "omp.cancellations" (runs stopped by ctx). This is also
// the executor behind the tuned path, where instrumentation skew would
// corrupt the very measurements the planner feeds on.
func CollapsedForChunkTelemetryCtx(ctx context.Context, r *core.Result, params map[string]int64,
	threads int, sched Schedule, tel *telemetry.Registry,
	body func(tid int, idx []int64)) (CollapsedStats, error) {
	e, err := newEngine(r, params, threads, sched)
	if err != nil {
		return CollapsedStats{}, err
	}
	return e.run(ctx, tel, true, tupleStep(body))
}

// CollapsedForSIMD executes the collapsed space with the §VI.A
// vectorization scheme: each thread takes one static chunk, recovers its
// first tuple once, and fills its thread-private tuple array T[vlength]
// by lexicographic incrementation; body consumes each full window (and
// the chunk's final partial one) as the "#pragma omp simd" loop.
func CollapsedForSIMD(r *core.Result, params map[string]int64, threads, vlength int,
	body func(tid int, batch [][]int64)) error {
	if vlength < 1 {
		vlength = 1
	}
	e, err := newEngine(r, params, threads, Schedule{Kind: Static})
	if err != nil {
		return err
	}
	depth := r.C
	_, err = e.run(nil, nil, false, func(tid int, b *unrank.Bound, clo, chi int64, idx []int64) error {
		backing := make([]int64, vlength*depth)
		batch := make([][]int64, vlength)
		for v := range batch {
			batch[v] = backing[v*depth : (v+1)*depth]
		}
		n := 0
		err := core.ForRangeFrom(b, clo, chi-1, idx, func(_ int64, ix []int64) {
			copy(batch[n], ix)
			if n++; n == vlength {
				body(tid, batch)
				n = 0
			}
		})
		if err == nil && n > 0 {
			body(tid, batch[:n])
		}
		return err
	})
	return err
}

// CollapsedForWarp executes the collapsed space with the §VI.B GPU-warp
// scheme: W lanes run concurrently; lane w executes iterations pc = w+1,
// w+1+W, w+1+2W, … Each lane's chunk is its start rank w+1, whose tuple
// the engine recovers once; the lane then advances by W lexicographic
// incrementations between iterations, achieving the coalesced-access
// distribution of the paper.
func CollapsedForWarp(r *core.Result, params map[string]int64, W int,
	body func(lane int, pc int64, idx []int64)) error {
	if W < 1 {
		W = 1
	}
	e, err := newEngine(r, params, W, Schedule{Kind: Static})
	if err != nil {
		return err
	}
	total, stride := e.hi-1, int64(W)
	// A static schedule over the first min(W, total) ranks hands lane w
	// exactly the chunk [w+1, w+2).
	e.hi = min(e.hi, stride+1)
	_, err = e.run(nil, nil, false, func(lane int, b *unrank.Bound, pc, _ int64, idx []int64) error {
		for {
			body(lane, pc, idx)
			if pc > total-stride {
				return nil
			}
			for k := 0; k < W; k++ {
				if !b.Increment(idx) {
					return fmt.Errorf("omp: warp lane %d: iteration space exhausted after pc=%d: %w",
						lane, pc, faults.ErrRecoveryDiverged)
				}
			}
			pc += stride
		}
	})
	return err
}

// chunkStep runs the collapsed ranks [clo, chi) on worker tid once the
// engine has recovered the tuple of rank clo into idx (b's scratch).
type chunkStep func(tid int, b *unrank.Bound, clo, chi int64, idx []int64) error

// tupleStep hands body every tuple of the chunk (core.ForRangeFrom).
func tupleStep(body func(tid int, idx []int64)) chunkStep {
	return func(tid int, b *unrank.Bound, clo, chi int64, idx []int64) error {
		return core.ForRangeFrom(b, clo, chi-1, idx, func(_ int64, ix []int64) { body(tid, ix) })
	}
}

// rangeStep hands body the chunk's flat innermost runs
// (core.ForRangesFrom), counting them in stats[tid] when stats is
// non-nil.
func rangeStep(stats []core.RangeStats, body func(tid int, pc int64, prefix []int64, lo, hi int64)) chunkStep {
	return func(tid int, b *unrank.Bound, clo, chi int64, idx []int64) error {
		var st *core.RangeStats
		if stats != nil {
			st = &stats[tid]
		}
		return core.ForRangesFrom(b, clo, chi-1, idx, st, func(pc int64, prefix []int64, lo, hi int64) {
			body(tid, pc, prefix, lo, hi)
		})
	}
}

// engine is the one collapsed executor behind every entry point of this
// package: the team's recovery state is bound once, the collapsed ranks
// [lo, hi) are workshared by a single ParallelForChunksCtx, and every
// chunk recovers its start tuple once before a chunkStep advances
// through it by lexicographic incrementation (paper §V). Per-tuple and
// per-range bodies, §VI.A SIMD windows, §VI.B warp lanes and dist shard
// attempts differ only in their chunkStep.
type engine struct {
	bounds []*unrank.Bound // one per worker: the bound and its clones
	lo, hi int64
	sched  Schedule
}

// newEngine privatizes recovery state for a team: the collapse result is
// bound once (paying bound compilation and the count-polynomial
// evaluation a single time), then each additional worker receives a
// Clone sharing the immutable compiled core with only its own mutable
// scratch. The engine covers the whole collapsed range [1, Total].
func newEngine(r *core.Result, params map[string]int64, threads int, sched Schedule) (*engine, error) {
	threads = max(threads, 1)
	b0, err := r.Unranker.Bind(params)
	if err != nil {
		return nil, err
	}
	end, err := pcEnd(b0.Total())
	if err != nil {
		return nil, err
	}
	bounds := make([]*unrank.Bound, threads)
	bounds[0] = b0
	for t := 1; t < threads; t++ {
		bounds[t] = b0.Clone()
	}
	return &engine{bounds: bounds, lo: 1, hi: end, sched: sched}, nil
}

// pcEnd returns the exclusive upper bound last+1 of a collapsed pc
// range ending at last, refusing values whose +1 would wrap. Bind
// already rejects counts beyond int64, but the int64 fast path can
// legitimately produce math.MaxInt64 itself.
func pcEnd(last int64) (int64, error) {
	if last >= math.MaxInt64 {
		return 0, fmt.Errorf("omp: collapsed pc range ending at %d overflows int64: %w",
			last, faults.ErrOverflow)
	}
	return last + 1, nil
}

// startTuple recovers the tuple of rank clo into b's scratch.
func startTuple(b *unrank.Bound, clo int64) ([]int64, error) {
	idx := b.Scratch()
	return idx, b.Unrank(clo, idx)
}

// run executes step over every chunk. It has two instrumentation states,
// chosen by the entry point from whether its caller asked for stats or
// passed a registry: off (metered false) reads no clock at all;
// chunk-granularity metering records each chunk's duration and recovery
// time, live gauges, trace events, histograms and robustness counters on
// tel (which may be nil) and returns the per-thread breakdown.
func (e *engine) run(ctx context.Context, tel *telemetry.Registry, metered bool,
	step chunkStep) (CollapsedStats, error) {
	threads := len(e.bounds)
	if !metered {
		err := ParallelForChunksCtx(ctx, threads, e.lo, e.hi, e.sched, func(tid int, clo, chi int64) error {
			b := e.bounds[tid]
			idx, err := startTuple(b, clo)
			if err != nil {
				return err
			}
			return step(tid, b, clo, chi, idx)
		})
		return CollapsedStats{}, err
	}
	cs := CollapsedStats{Threads: threads, Total: e.bounds[0].Total(), PerThread: make([]ThreadStats, threads)}
	for t := range cs.PerThread {
		cs.PerThread[t].TID = t
	}
	tr := tel.Trace()
	hist := tel.Histogram("omp.chunk_seconds", nil)
	recHist := tel.Histogram(RecoverySecondsMetric, nil)
	live := newLiveTeam(tel, threads, e.sched.Kind)
	published := make([]unrank.Stats, threads)
	evName := e.sched.Kind.String()
	runErr := ParallelForChunksCtx(ctx, threads, e.lo, e.hi, e.sched, func(tid int, clo, chi int64) error {
		b := e.bounds[tid]
		var startOff time.Duration
		if tr != nil {
			startOff = tr.Now()
		}
		live.chunkStart(tid, startOff)
		t0 := time.Now()
		idx, err := startTuple(b, clo)
		if err != nil {
			return err
		}
		recovery := time.Since(t0)
		// The per-chunk recovery histogram is the autotuner's measured
		// cost input: its p50 replaces the calibrated constant when the
		// planner charges the §V recovery per simulated chunk.
		recHist.Observe(recovery.Seconds())
		if err := step(tid, b, clo, chi, idx); err != nil {
			return err
		}
		busy := time.Since(t0)
		st := &cs.PerThread[tid]
		st.Chunks++
		st.Iterations += chi - clo
		st.Busy += busy
		st.Recovery += recovery
		hist.Observe(busy.Seconds())
		if live != nil {
			// Live progress: advance the per-worker gauges and publish the
			// recovery-counter deltas of this chunk, so a mid-run scrape
			// sees escalations and imbalance as they happen.
			s := b.Stats()
			live.chunkEnd(tid, chi-clo, s.Sub(published[tid]))
			published[tid] = s
		}
		if tr != nil {
			tr.Add(telemetry.Event{
				Name: evName, Cat: "chunk", TID: tid, Start: startOff, Dur: busy,
				Args: []telemetry.Arg{
					{Name: "pc_lo", Value: clo},
					{Name: "pc_hi", Value: chi},
					{Name: "iters", Value: chi - clo},
					{Name: "recovery_ns", Value: recovery.Nanoseconds()},
				},
			})
		}
		return nil
	})
	// The per-chunk path published counter deltas live; here only the
	// remainder accrued outside chunk boundaries (e.g. during Bind) is
	// added, so the registry totals match cs.Stats exactly without
	// double counting. Iterations count completed chunks only, so a
	// canceled or failed run publishes the work actually done.
	var remainder unrank.Stats
	var done int64
	for t, b := range e.bounds {
		s := b.Stats()
		cs.PerThread[t].Unrank = s
		cs.Stats.Add(s)
		remainder.Add(s.Sub(published[t]))
		done += cs.PerThread[t].Iterations
	}
	live.publishRemainder(remainder)
	switch {
	case runErr == nil:
	case faults.AsPanic(runErr) != nil:
		tel.Counter("omp.panics_recovered").Inc()
	case errors.Is(runErr, faults.ErrCanceled):
		tel.Counter("omp.cancellations").Inc()
	}
	tel.Counter("omp.iterations").Add(done)
	return cs, runErr
}

// ThreadStats is the per-thread runtime record of an instrumented
// collapsed run: how many chunks and iterations the thread completed,
// how long it was busy (recovery plus incrementation plus body), how
// much of that was the once-per-chunk closed-form recovery, and the
// thread's own unranker counters.
type ThreadStats struct {
	TID        int
	Chunks     int64
	Iterations int64
	Busy       time.Duration
	Recovery   time.Duration
	Unrank     unrank.Stats
}

// CollapsedStats aggregates the runtime statistics of one collapsed
// parallel run: the per-thread breakdown plus the team-wide sums of the
// recovery counters (root evaluations, corrections, fallbacks,
// searches) — the quantities behind the paper's Fig. 10 overhead
// discussion.
type CollapsedStats struct {
	Threads int
	Total   int64
	// Stats is the sum of every thread's unranker counters.
	Stats unrank.Stats
	// PerThread has one entry per team member, indexed by tid.
	PerThread []ThreadStats
}

// ImbalanceReport derives the load-balance summary (max/mean busy time,
// coefficients of variation) from the per-thread breakdown.
func (cs CollapsedStats) ImbalanceReport() telemetry.ImbalanceReport {
	loads := make([]telemetry.ThreadLoad, len(cs.PerThread))
	for i, t := range cs.PerThread {
		loads[i] = telemetry.ThreadLoad{
			TID:        t.TID,
			Chunks:     t.Chunks,
			Iterations: t.Iterations,
			Busy:       t.Busy,
			Recovery:   t.Recovery,
		}
	}
	return telemetry.NewImbalance(loads)
}
