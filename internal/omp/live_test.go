package omp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/nest"
	"repro/internal/telemetry"
	"repro/internal/unrank"
)

func liveResult(t *testing.T) *core.Result {
	t.Helper()
	n := nest.MustNew([]string{"N"}, nest.L("i", "0", "N-1"), nest.L("j", "i+1", "N"))
	res, err := core.Collapse(n, 2, unrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLiveProgressGauges runs the instrumented executor and checks the
// live per-worker series: chunk/iteration counters labelled by tid sum
// to the run totals, the in-flight markers clear at run end, and the
// unrank counters published incrementally match the aggregated stats
// exactly (no double counting between the per-chunk deltas and the
// end-of-run remainder).
func TestLiveProgressGauges(t *testing.T) {
	tel := telemetry.New()
	res := liveResult(t)
	threads := 4
	cs, err := CollapsedForChunkTelemetryCtx(nil, res, map[string]int64{"N": 60}, threads,
		Schedule{Kind: StaticChunk, Chunk: 37}, tel, func(tid int, idx []int64) {})
	if err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	if got := snap.Gauges["omp.team_size"]; got != int64(threads) {
		t.Errorf("omp.team_size = %d, want %d", got, threads)
	}
	sched := StaticChunk.String()
	var chunks, iters int64
	for tid := 0; tid < threads; tid++ {
		chunks += snap.Counters[fmt.Sprintf("omp.worker_chunks{tid=%q,sched=%q}", fmt.Sprint(tid), sched)]
		iters += snap.Counters[fmt.Sprintf("omp.worker_iterations{tid=%q,sched=%q}", fmt.Sprint(tid), sched)]
		if since := snap.Gauges[fmt.Sprintf("omp.worker_inflight_since_ns{tid=%q,sched=%q}", fmt.Sprint(tid), sched)]; since != 0 {
			t.Errorf("worker %d inflight marker %d after run end, want 0", tid, since)
		}
	}
	var wantChunks int64
	for _, st := range cs.PerThread {
		wantChunks += st.Chunks
	}
	if chunks != wantChunks {
		t.Errorf("live chunk counters sum to %d, want %d", chunks, wantChunks)
	}
	if iters != cs.Total {
		t.Errorf("live iteration counters sum to %d, want %d", iters, cs.Total)
	}
	if got := snap.Counters["unrank.root_evals"]; got != cs.Stats.RootEvals {
		t.Errorf("unrank.root_evals = %d, want %d (incremental publish must not double count)",
			got, cs.Stats.RootEvals)
	}
	if got := snap.Counters["unrank.corrections"]; got != cs.Stats.Corrections {
		t.Errorf("unrank.corrections = %d, want %d", got, cs.Stats.Corrections)
	}
}

// TestLiveGaugesMidRun scrapes the registry from inside the body of a
// running collapsed loop and checks progress is visible before the run
// finishes — the property the obs plane's /metrics endpoint depends on.
func TestLiveGaugesMidRun(t *testing.T) {
	tel := telemetry.New()
	res := liveResult(t)
	var scraped atomic.Bool
	var midIters int64
	threads := 2
	sched := StaticChunk.String()
	_, err := CollapsedForChunkTelemetryCtx(nil, res, map[string]int64{"N": 120}, threads,
		Schedule{Kind: StaticChunk, Chunk: 16}, tel, func(tid int, idx []int64) {
			if idx[0] > 60 && scraped.CompareAndSwap(false, true) {
				snap := tel.Snapshot()
				for tid := 0; tid < threads; tid++ {
					midIters += snap.Counters[fmt.Sprintf("omp.worker_iterations{tid=%q,sched=%q}", fmt.Sprint(tid), sched)]
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if !scraped.Load() {
		t.Fatal("scrape body never ran")
	}
	if midIters <= 0 {
		t.Errorf("mid-run scrape saw %d iterations, want > 0", midIters)
	}
}

// TestRangesLiveGauges checks the range-batched engine publishes the
// same live series.
func TestRangesLiveGauges(t *testing.T) {
	tel := telemetry.New()
	res := liveResult(t)
	_, err := CollapsedForRangesStats(res, map[string]int64{"N": 50}, 3,
		Schedule{Kind: Static}, tel, func(tid int, pc int64, prefix []int64, lo, hi int64) {})
	if err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	sched := Static.String()
	var iters int64
	for tid := 0; tid < 3; tid++ {
		iters += snap.Counters[fmt.Sprintf("omp.worker_iterations{tid=%q,sched=%q}", fmt.Sprint(tid), sched)]
	}
	want := snap.Counters["omp.iterations"]
	if want == 0 || iters != want {
		t.Errorf("per-worker live iterations %d, want omp.iterations %d (nonzero)", iters, want)
	}
}

// TestFailedRunCountsCompletedWork stops metered runs of both chunk
// steps mid-run — by cancellation and by a body panic — and checks that
// every iteration counter reports the same completed work:
// "omp.iterations", the per-thread breakdown and the live
// omp.worker_iterations series, plus the matching robustness counter.
func TestFailedRunCountsCompletedWork(t *testing.T) {
	res := liveResult(t)
	params := map[string]int64{"N": 60}
	sched := Schedule{Kind: Dynamic, Chunk: 16}
	const threads = 2
	type runner func(ctx context.Context, tel *telemetry.Registry, hit func(n int64)) (CollapsedStats, error)
	paths := map[string]runner{
		"tuple": func(ctx context.Context, tel *telemetry.Registry, hit func(int64)) (CollapsedStats, error) {
			return CollapsedForChunkTelemetryCtx(ctx, res, params, threads, sched, tel,
				func(int, []int64) { hit(1) })
		},
		"ranges": func(ctx context.Context, tel *telemetry.Registry, hit func(int64)) (CollapsedStats, error) {
			e, err := newEngine(res, params, threads, sched)
			if err != nil {
				return CollapsedStats{}, err
			}
			return e.run(ctx, tel, true, rangeStep(nil, func(_ int, _ int64, _ []int64, lo, hi int64) {
				hit(hi - lo)
			}))
		},
	}
	for name, run := range paths {
		for _, failure := range []string{"cancel", "panic"} {
			tel := telemetry.New()
			ctx, cancel := context.WithCancel(context.Background())
			var seen atomic.Int64
			var once sync.Once
			// Fail once the team is past its first chunk's worth of work.
			cs, err := run(ctx, tel, func(n int64) {
				if seen.Add(n) > sched.Chunk {
					once.Do(func() {
						if failure == "cancel" {
							cancel()
							return
						}
						panic("injected body panic")
					})
				}
			})
			cancel()
			label := name + "/" + failure
			counter := "omp.cancellations"
			if failure == "panic" {
				counter = "omp.panics_recovered"
				if faults.AsPanic(err) == nil {
					t.Fatalf("%s: err = %v, want a panic error", label, err)
				}
			} else if !errors.Is(err, faults.ErrCanceled) {
				t.Fatalf("%s: err = %v, want canceled", label, err)
			}
			snap := tel.Snapshot()
			if got := snap.Counters[counter]; got != 1 {
				t.Errorf("%s: %s = %d, want 1", label, counter, got)
			}
			var perThread, live int64
			for _, st := range cs.PerThread {
				perThread += st.Iterations
			}
			for k, v := range snap.Counters {
				if strings.HasPrefix(k, "omp.worker_iterations{") {
					live += v
				}
			}
			if perThread <= 0 || perThread >= cs.Total {
				t.Errorf("%s: %d of %d iterations completed, want a strict nonzero prefix", label, perThread, cs.Total)
			}
			if got := snap.Counters["omp.iterations"]; got != perThread || live != perThread {
				t.Errorf("%s: omp.iterations = %d, worker series sum = %d, per-thread sum = %d; want all equal",
					label, got, live, perThread)
			}
		}
	}
}
