package autotune

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/nest"
	"repro/internal/omp"
	"repro/internal/schedsim"
	"repro/internal/telemetry"
	"repro/internal/unrank"
)

func triangular(t testing.TB) *core.Result {
	t.Helper()
	n := nest.MustNew([]string{"N"}, nest.L("i", "0", "N"), nest.L("j", "i", "N"))
	res, err := core.Collapse(n, 2, unrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// partialCollapse collapses only the outer loop of a triangular nest,
// so per-unit work varies linearly across the collapsed range — the
// imbalanced shape the work model must expose.
func partialCollapse(t testing.TB) *core.Result {
	t.Helper()
	n := nest.MustNew([]string{"N"}, nest.L("i", "0", "N"), nest.L("j", "i", "N"))
	res, err := core.Collapse(n, 1, unrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWorkModelUniformForFullCollapse(t *testing.T) {
	res := triangular(t)
	params := map[string]int64{"N": 100}
	b, err := res.Unranker.Bind(params)
	if err != nil {
		t.Fatal(err)
	}
	m := buildWorkModel(res, b, params, 64)
	if !m.uniform {
		t.Fatal("full collapse should produce the uniform model")
	}
	want := float64(b.Total())
	if m.totalWork != want {
		t.Fatalf("totalWork = %g, want %g", m.totalWork, want)
	}
	var sum float64
	for _, w := range m.work {
		sum += w
	}
	if sum != want {
		t.Fatalf("sum(work) = %g, want %g", sum, want)
	}
}

func TestWorkModelSeesPartialCollapseImbalance(t *testing.T) {
	res := partialCollapse(t)
	params := map[string]int64{"N": 256}
	b, err := res.Unranker.Bind(params)
	if err != nil {
		t.Fatal(err)
	}
	m := buildWorkModel(res, b, params, 64)
	if m.uniform {
		t.Fatal("partial collapse must not use the uniform model")
	}
	// Outer iteration i has N-i inner iterations: the first cell must
	// carry visibly more work than the last.
	first, last := m.work[0], m.work[len(m.work)-1]
	if first <= 2*last {
		t.Fatalf("work profile flat: first cell %g, last cell %g", first, last)
	}
	// Total inner iterations of the triangular nest: N(N+1)/2.
	want := float64(256*257) / 2
	if ratio := m.totalWork / want; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("totalWork = %g, want about %g (midpoint sampling within 10%%)", m.totalWork, want)
	}
}

func TestPlanCachesAndCounts(t *testing.T) {
	tel := telemetry.New()
	tuner := New(Options{Registry: tel, UnitSec: 1e-6})
	res := triangular(t)
	params := map[string]int64{"N": 80}

	p1, cached, err := tuner.Plan(res, params)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first Plan reported cached")
	}
	if p1.Decision.Workers < 1 || p1.Decision.Workers > runtime.GOMAXPROCS(0) {
		t.Fatalf("workers = %d out of range", p1.Decision.Workers)
	}
	if p1.Decision.Schedule.Kind == omp.ScheduleAuto {
		t.Fatal("plan returned unresolved ScheduleAuto")
	}
	if p1.Decision.PredictedSec <= 0 {
		t.Fatalf("predicted makespan %g, want > 0", p1.Decision.PredictedSec)
	}

	p2, cached, err := tuner.Plan(res, params)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || p2 != p1 {
		t.Fatal("second Plan did not hit the cache")
	}
	// Nearby size, same log2 bucket: still a hit.
	if _, cached, _ = tuner.Plan(res, map[string]int64{"N": 81}); !cached {
		t.Fatal("same params bucket missed the cache")
	}
	// Order-of-magnitude change: bucket differs, re-plan.
	if _, cached, _ = tuner.Plan(res, map[string]int64{"N": 800}); cached {
		t.Fatal("different params bucket hit the cache")
	}

	snap := tel.Snapshot()
	if got := snap.Counters["autotune.plans"]; got != 2 {
		t.Errorf("autotune.plans = %d, want 2", got)
	}
	if got := snap.Counters["autotune.cache_hits"]; got != 2 {
		t.Errorf("autotune.cache_hits = %d, want 2", got)
	}
}

func TestObserveReplansOnDeviation(t *testing.T) {
	tel := telemetry.New()
	tuner := New(Options{Registry: tel, UnitSec: 1e-6})
	res := triangular(t)
	params := map[string]int64{"N": 80}
	p1, _, err := tuner.Plan(res, params)
	if err != nil {
		t.Fatal(err)
	}

	// Within deviation: no replan.
	same, replanned := tuner.Observe(p1, p1.Decision.PredictedSec*1.1)
	if replanned || same != p1 {
		t.Fatal("10% deviation must not replan")
	}

	// 3x slower than predicted: replan, unit cost scales up, and the
	// refreshed plan replaces the cached one.
	p2, replanned := tuner.Observe(p1, p1.Decision.PredictedSec*3)
	if !replanned {
		t.Fatal("3x deviation did not replan")
	}
	if p2.UnitSec <= p1.UnitSec {
		t.Fatalf("unit cost not scaled up: %g -> %g", p1.UnitSec, p2.UnitSec)
	}
	if p2.Replans() != 1 {
		t.Fatalf("Replans() = %d, want 1", p2.Replans())
	}
	p3, cached, err := tuner.Plan(res, params)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || p3 != p2 {
		t.Fatal("cache still serves the stale plan after refinement")
	}
	if got := tel.Snapshot().Counters["autotune.replans"]; got != 1 {
		t.Errorf("autotune.replans = %d, want 1", got)
	}
}

func TestObserveNoiseFloor(t *testing.T) {
	tuner := New(Options{UnitSec: 1e-9})
	res := triangular(t)
	p, _, err := tuner.Plan(res, map[string]int64{"N": 4})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny absolute deviations (microseconds) are timer noise, not signal.
	if _, replanned := tuner.Observe(p, p.Decision.PredictedSec+20e-6); replanned {
		t.Fatal("sub-noise-floor deviation replanned")
	}
}

func TestPlannerPrefersChunkedOnImbalancedWork(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs >= 2 cores")
	}
	tuner := New(Options{UnitSec: 1e-6, MaxWorkers: 4})
	res := partialCollapse(t)
	p, _, err := tuner.Plan(res, map[string]int64{"N": 4096})
	if err != nil {
		t.Fatal(err)
	}
	d := p.Decision
	// The triangular profile penalizes plain static halves: any chunked
	// or guided choice beats one contiguous block per thread.
	if d.Schedule.Kind == omp.Static {
		t.Fatalf("planner chose plain static for triangular work: %v", d)
	}
	if d.Workers < 2 {
		t.Fatalf("planner chose %d workers with 4 available on large work", d.Workers)
	}
}

func TestCollapsedForVisitsEveryIterationOnce(t *testing.T) {
	tel := telemetry.New()
	tuner := New(Options{Registry: tel})
	res := triangular(t)
	params := map[string]int64{"N": 40}
	var mu sync.Mutex
	seen := map[[2]int64]int{}
	run, err := tuner.CollapsedFor(context.Background(), res, params, func(tid int, idx []int64) {
		mu.Lock()
		seen[[2]int64{idx[0], idx[1]}]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for i := int64(0); i < 40; i++ {
		for j := i; j < 40; j++ {
			want++
			if seen[[2]int64{i, j}] != 1 {
				t.Fatalf("iteration (%d,%d) visited %d times", i, j, seen[[2]int64{i, j}])
			}
		}
	}
	if len(seen) != want {
		t.Fatalf("visited %d distinct iterations, want %d", len(seen), want)
	}
	if run.Plan == nil || run.Actual <= 0 {
		t.Fatalf("run missing plan or timing: %+v", run)
	}
	if run.Stats.Total != int64(want) {
		t.Fatalf("Stats.Total = %d, want %d", run.Stats.Total, want)
	}
	// The tuned run publishes worker metrics labelled with the chosen
	// schedule.
	sched := run.Plan.Decision.Schedule.Kind.String()
	snap := tel.Snapshot()
	var iters int64
	for tid := 0; tid < run.Plan.Decision.Workers; tid++ {
		iters += snap.Counters[fmt.Sprintf("omp.worker_iterations{tid=%q,sched=%q}", fmt.Sprint(tid), sched)]
	}
	if iters != int64(want) {
		t.Fatalf("labelled worker iterations sum to %d, want %d", iters, want)
	}
}

func TestCollapsedForConcurrent(t *testing.T) {
	tuner := New(Options{Registry: telemetry.New()})
	res := triangular(t)
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				_, err := tuner.CollapsedFor(context.Background(), res,
					map[string]int64{"N": 30}, func(tid int, idx []int64) {
						total.Add(1)
					})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	want := int64(4 * 3 * (30 * 31 / 2))
	if total.Load() != want {
		t.Fatalf("concurrent tuned runs visited %d iterations, want %d", total.Load(), want)
	}
}

func TestRecoveryP50OverridesSampling(t *testing.T) {
	tel := telemetry.New()
	res := triangular(t)
	params := map[string]int64{"N": 50}
	// Fill the histogram the way production does: one instrumented
	// collapsed run on the same registry, one observation per chunk.
	sched := omp.Schedule{Kind: omp.Dynamic, Chunk: 8}
	if _, err := omp.CollapsedForChunkTelemetryCtx(context.Background(), res, params, 2, sched, tel,
		func(int, []int64) {}); err != nil {
		t.Fatal(err)
	}
	if n := tel.Snapshot().Histograms[omp.RecoverySecondsMetric].Count; n < 2*minRecoveryObservations {
		t.Fatalf("instrumented run observed %d recoveries, want >= %d", n, 2*minRecoveryObservations)
	}
	tuner := New(Options{Registry: tel})
	p, _, err := tuner.Plan(res, params)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Cal.RecoveryMeasured {
		t.Fatal("plan ignored the live recovery histogram")
	}
	if p.Cal.Recovery <= 0 {
		t.Fatalf("measured recovery %g, want > 0", p.Cal.Recovery)
	}
}

func TestDecisionString(t *testing.T) {
	d := Decision{Schedule: omp.Schedule{Kind: omp.Dynamic, Chunk: 64}, Workers: 8}
	if got := d.String(); got != "dynamic,64 x8" {
		t.Fatalf("Decision.String() = %q", got)
	}
	d = Decision{Schedule: omp.Schedule{Kind: omp.Static}, Workers: 2}
	if got := d.String(); got != "static x2" {
		t.Fatalf("Decision.String() = %q", got)
	}
}

func TestWorkloadTraceScoring(t *testing.T) {
	tuner := New(Options{
		UnitSec: 1e-6,
		Workload: Workload{
			Arrivals: schedsim.Arrivals{Kind: schedsim.Poisson, Rate: 100},
			Requests: 32,
		},
	})
	res := triangular(t)
	p, _, err := tuner.Plan(res, map[string]int64{"N": 64})
	if err != nil {
		t.Fatal(err)
	}
	if p.Decision.PredictedSec <= 0 || p.Decision.Score <= 0 {
		t.Fatalf("trace-scored plan has empty prediction: %+v", p.Decision)
	}
}

// TestPlanKeyDistinguishesInnerLoops pins the regression where two
// nests sharing a collapsed prefix but differing in non-collapsed inner
// loops (syrk vs ltmp) collided to one plan key: the structural
// signature must cover the FULL nest, because the work profile the
// planner schedules lives in the inner loops.
func TestPlanKeyDistinguishesInnerLoops(t *testing.T) {
	syrkLike := nest.MustNew([]string{"N"},
		nest.L("i", "0", "N"), nest.L("j", "0", "i+1"), nest.L("k", "0", "N"))
	ltmpLike := nest.MustNew([]string{"N"},
		nest.L("i", "0", "N"), nest.L("j", "0", "i+1"), nest.L("k", "j", "i+1"))
	resA, err := core.Collapse(syrkLike, 2, unrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := core.Collapse(ltmpLike, 2, unrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"N": 32}
	if a, b := planKey(resA, params, 8), planKey(resB, params, 8); a == b {
		t.Fatalf("distinct inner loops share plan key %q", a)
	}
	// Same full shape, different collapse count: also distinct plans.
	resC, err := core.Collapse(syrkLike, 3, unrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a, c := planKey(resA, params, 8), planKey(resC, params, 8); a == c {
		t.Fatalf("distinct collapse counts share plan key %q", a)
	}
}
