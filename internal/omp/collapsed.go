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
// used: the chunk's first index tuple is positioned once, and subsequent
// tuples come from lexicographic incrementation, mirroring the code of
// paper Figs. 4 and §V. The first tuple costs one closed-form recovery,
// except when the worker's previous chunk ended a few innermost runs
// before it: the worker then increments on from its last tuple instead
// (a seeded start), so fine schedules pay few recoveries.
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
// §V engine: each chunk positions its first tuple once (a recovery, or a
// seeded start as in CollapsedFor), then the body receives maximal flat
// innermost runs instead of single iterations.
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
	stats := make([]core.RangeStats, len(e.members))
	_, runErr := e.run(nil, tel, true, rangeStep(stats, body))
	for _, s := range stats {
		agg.Add(s)
	}
	tel.Counter("omp.range_batches").Add(agg.Batches)
	tel.Counter("omp.range_carries").Add(agg.Carries)
	return agg, runErr
}

// RecoverySecondsMetric names the histogram into which the instrumented
// collapsed executor observes the index-recovery time of each chunk
// whose start was recovered by Bound.Unrank; seeded starts are left out.
// The autotune planner reads its p50 back as live calibration, so writer
// and reader share this one name.
const RecoverySecondsMetric = "omp.recovery_seconds"

// CollapsedForChunkTelemetryCtx is the instrumented collapsed executor:
// it runs the §V scheme like CollapsedForCtx while recording, per chunk,
// its duration, the time spent positioning its start, whether that start
// was seeded, the live per-worker gauges and the worker's unrank
// statistics, and returns the per-thread breakdown.
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
// engine has positioned idx (b's scratch) at the tuple of rank clo.
// A step that returns nil must leave idx at the tuple of rank chi-1:
// the engine skips forward from there to the worker's next chunk. The
// core.ForRangeFrom and core.ForRangesFrom drivers do. The warp step
// does not, which is safe only because each lane gets exactly one chunk
// and so never starts another from its scratch.
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
// chunk positions its start tuple once before a chunkStep advances
// through it by lexicographic incrementation (paper §V). Per-tuple and
// per-range bodies, §VI.A SIMD windows, §VI.B warp lanes and dist shard
// attempts differ only in their chunkStep.
//
// A chunk start is positioned by the §V recovery (Bound.Unrank) unless
// the worker's previous chunk ended a few runs before it: the worker
// then skips forward from the tuple its last step left in the scratch
// (nest.Instance.Skip). That is the same lexicographic incrementation
// the step trusts inside a chunk, so it is exact by construction; under
// fine schedules it replaces almost every recovery.
type engine struct {
	members []*member
	lo, hi  int64
	sched   Schedule
}

// seedCarries bounds the carries a worker may take to skip from its
// last tuple to its next chunk start before the engine recovers the
// start with Bound.Unrank instead. On a 2-vCPU host a recovery cost
// 840 ns on the fine-grain benchmark workload (unrank.recover_ns) and
// one carry 22-26 ns (BenchmarkSkip in the nest package), so a skip of
// at most 840/24 ≈ 35 carries costs no more than the recovery it
// replaces.
const seedCarries = 35

// member is one team member's private engine state: its bound, whose
// scratch holds the tuple the member last ran, and seed, the rank of
// that tuple, or 0 when the next chunk must recover its start. A member
// is its own 64-byte allocation, so the seed written after every chunk
// shares no cache line with another member's.
type member struct {
	b    *unrank.Bound
	seed int64
	_    [48]byte
}

// start positions the member's scratch at the tuple of rank clo and
// reports whether it got there by skipping from the seed rather than
// by Bound.Unrank. The seed is cleared: the caller records a new one
// only once the chunk's step has succeeded, so a failed or panicking
// chunk never seeds the next.
func (m *member) start(clo int64) (idx []int64, seeded bool, err error) {
	idx = m.b.Scratch()
	seed := m.seed
	m.seed = 0
	if seed > 0 && clo > seed && m.b.Instance().Skip(idx, clo-seed, seedCarries) {
		return idx, true, nil
	}
	return idx, false, m.b.Unrank(clo, idx)
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
	members := make([]*member, threads)
	members[0] = &member{b: b0}
	for t := 1; t < threads; t++ {
		members[t] = &member{b: b0.Clone()}
	}
	return &engine{members: members, lo: 1, hi: end, sched: sched}, nil
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

// run executes step over every chunk. It has two instrumentation states,
// chosen by the entry point from whether its caller asked for stats or
// passed a registry: off (metered false) reads no clock at all;
// chunk-granularity metering records each chunk's duration and recovery
// time, live gauges, trace events, histograms and robustness counters on
// tel (which may be nil) and returns the per-thread breakdown.
func (e *engine) run(ctx context.Context, tel *telemetry.Registry, metered bool,
	step chunkStep) (CollapsedStats, error) {
	threads := len(e.members)
	if !metered {
		err := ParallelForChunksCtx(ctx, threads, e.lo, e.hi, e.sched, func(tid int, clo, chi int64) error {
			m := e.members[tid]
			idx, _, err := m.start(clo)
			if err != nil {
				return err
			}
			if err := step(tid, m.b, clo, chi, idx); err != nil {
				return err
			}
			m.seed = chi - 1
			return nil
		})
		return CollapsedStats{}, err
	}
	cs := CollapsedStats{Threads: threads, Total: e.members[0].b.Total(), PerThread: make([]ThreadStats, threads)}
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
		m := e.members[tid]
		var startOff time.Duration
		if tr != nil {
			startOff = tr.Now()
		}
		live.chunkStart(tid, startOff)
		t0 := time.Now()
		idx, seeded, err := m.start(clo)
		if err != nil {
			return err
		}
		recovery := time.Since(t0)
		if !seeded {
			// The per-chunk recovery histogram is the autotuner's measured
			// cost input: its p50 replaces the calibrated constant when the
			// planner charges the §V recovery per simulated chunk, so it
			// observes real recoveries only, never a skip.
			recHist.Observe(recovery.Seconds())
		}
		if err := step(tid, m.b, clo, chi, idx); err != nil {
			return err
		}
		m.seed = chi - 1
		busy := time.Since(t0)
		st := &cs.PerThread[tid]
		st.Chunks++
		st.Iterations += chi - clo
		st.Busy += busy
		st.Recovery += recovery
		seededArg := int64(0)
		if seeded {
			st.Seeded++
			seededArg = 1
		}
		hist.Observe(busy.Seconds())
		if live != nil {
			// Live progress: advance the per-worker gauges and publish the
			// recovery-counter deltas of this chunk, so a mid-run scrape
			// sees escalations and imbalance as they happen.
			s := m.b.Stats()
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
					{Name: "seeded", Value: seededArg},
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
	for t, m := range e.members {
		s := m.b.Stats()
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
// how long it was busy (chunk-start positioning plus incrementation
// plus body), how much of that went to positioning the chunk starts,
// how many of those starts were seeded, and the thread's own unranker
// counters.
type ThreadStats struct {
	TID        int
	Chunks     int64
	Iterations int64
	Busy       time.Duration
	// Recovery is the time spent positioning chunk starts, by
	// Bound.Unrank or by skipping forward from the previous chunk.
	Recovery time.Duration
	// Seeded counts the chunk starts reached by skipping forward from
	// the worker's previous chunk instead of by Bound.Unrank; the other
	// Chunks - Seeded starts were recovered.
	Seeded int64
	Unrank unrank.Stats
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
