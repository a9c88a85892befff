package nonrect

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/nest"
)

func triangular(t *testing.T) (*Nest, *Result) {
	t.Helper()
	n := MustNewNest([]string{"N"}, L("i", "0", "N-1"), L("j", "i+1", "N"))
	res, err := Collapse(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	return n, res
}

// TestWorkerPanicSurfacesThroughAPI forces a panic inside the body of a
// public collapsed run and checks the process survives: the error chain
// carries a *PanicError with the worker's stack.
func TestWorkerPanicSurfacesThroughAPI(t *testing.T) {
	_, res := triangular(t)
	err := CollapsedForCtx(context.Background(), res, map[string]int64{"N": 200}, 4,
		Schedule{Kind: Dynamic, Chunk: 16},
		func(tid int, idx []int64) {
			if idx[0] == 100 {
				panic("body boom")
			}
		})
	if err == nil {
		t.Fatal("worker panic not reported")
	}
	pe := AsPanic(err)
	if pe == nil {
		t.Fatalf("no PanicError in chain: %v", err)
	}
	if pe.Value != "body boom" || !strings.Contains(string(pe.Stack), "robust_test") {
		t.Fatalf("PanicError incomplete: value=%v stack=%d bytes", pe.Value, len(pe.Stack))
	}
}

// TestCancellationThroughAPI cancels mid-run and checks the collapsed
// loop stops at the next chunk boundary with ErrCanceled.
func TestCancellationThroughAPI(t *testing.T) {
	_, res := triangular(t)
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	err := CollapsedForCtx(ctx, res, map[string]int64{"N": 2000}, 4,
		Schedule{Kind: Dynamic, Chunk: 8},
		func(tid int, idx []int64) {
			if seen.Add(1) == 500 {
				cancel()
			}
		})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	total := int64(2000) * 1999 / 2
	if seen.Load() >= total {
		t.Errorf("run completed (%d iterations) despite cancellation", seen.Load())
	}
}

// TestCollapsedForAutoDowngrade checks the degradation ladder end to
// end: a 5-deep simplex nest (ranking degree 5, beyond radicals) stays
// collapsed through the breakpoint-table retry, a non-affine nest runs
// uncollapsed, the same iterations are produced either way, and each
// rung is recorded in telemetry; a collapsible nest takes the fast path.
func TestCollapsedForAutoDowngrade(t *testing.T) {
	deep := MustNewNest([]string{"N"},
		L("a", "0", "N"), L("b", "0", "a+1"), L("c", "0", "b+1"),
		L("d", "0", "c+1"), L("e", "0", "d+1"))
	tel := NewTelemetry()
	var count atomic.Int64
	collapsed, err := CollapsedForAuto(context.Background(), deep, 5,
		map[string]int64{"N": 10}, 4, Schedule{Kind: Static},
		func(tid int, idx []int64) { count.Add(1) }, WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	if !collapsed {
		t.Fatal("degree-5 nest did not collapse through the table retry")
	}
	// Serial reference count.
	var want int64
	for a := int64(0); a < 10; a++ {
		for b := int64(0); b <= a; b++ {
			for c := int64(0); c <= b; c++ {
				for d := int64(0); d <= c; d++ {
					want += d + 1
				}
			}
		}
	}
	if count.Load() != want {
		t.Fatalf("table retry ran %d iterations, want %d", count.Load(), want)
	}
	if !strings.Contains(tel.Report(), "omp.table_retries") {
		t.Errorf("table retry not recorded in telemetry:\n%s", tel.Report())
	}

	// Through one cache, the closed-form failure is memoized beside the
	// table artifact: a second call compiles nothing, still takes the
	// table retry, and visits the enumeration multiset.
	var enum [][]int64
	for a := int64(0); a < 10; a++ {
		for b := int64(0); b <= a; b++ {
			for c := int64(0); c <= b; c++ {
				for d := int64(0); d <= c; d++ {
					for e := int64(0); e <= d; e++ {
						enum = append(enum, []int64{a, b, c, d, e})
					}
				}
			}
		}
	}
	cache := NewCollapseCache(8)
	tel = NewTelemetry()
	for call := 1; call <= 2; call++ {
		var mu sync.Mutex
		var got [][]int64
		collapsed, err := CollapsedForAuto(context.Background(), deep, 5,
			map[string]int64{"N": 10}, 4, Schedule{Kind: Static},
			func(tid int, idx []int64) {
				mu.Lock()
				got = append(got, append([]int64(nil), idx...))
				mu.Unlock()
			}, WithTelemetry(tel), WithCache(cache))
		if err != nil || !collapsed {
			t.Fatalf("cached call %d: collapsed=%v err=%v", call, collapsed, err)
		}
		slices.SortFunc(got, slices.Compare[[]int64])
		if !slices.EqualFunc(got, enum, slices.Equal[[]int64]) {
			t.Fatalf("cached call %d visited %d tuples, not the %d of the enumeration", call, len(got), len(enum))
		}
		st := cache.Stats()
		if st.Misses != 2 || st.Hits != int64(2*(call-1)) || st.Entries != 2 {
			t.Fatalf("after cached call %d: %v, want 2 misses (closed-form failure, table artifact)", call, st)
		}
		if n := tel.Counter("omp.table_retries").Value(); n != int64(call) {
			t.Fatalf("after cached call %d: omp.table_retries = %d", call, n)
		}
	}

	// A non-affine bound is beyond every collapsed mode: the bottom rung
	// (uncollapsed worksharing) must run it. Built as a raw literal —
	// NewNest would reject it up front.
	quad := &Nest{Params: []string{"N"}, Loops: []Loop{
		L("i", "0", "N"), L("j", "0", "i*i+1"),
	}}
	tel = NewTelemetry()
	count.Store(0)
	collapsed, err = CollapsedForAuto(context.Background(), quad, 2,
		map[string]int64{"N": 10}, 4, Schedule{Kind: Static},
		func(tid int, idx []int64) { count.Add(1) }, WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	if collapsed {
		t.Fatal("non-affine nest reported as collapsed")
	}
	want = 0
	for i := int64(0); i < 10; i++ {
		want += i*i + 1
	}
	if count.Load() != want {
		t.Fatalf("fallback ran %d iterations, want %d", count.Load(), want)
	}
	if !strings.Contains(tel.Report(), "omp.downgrades") {
		t.Errorf("downgrade not recorded in telemetry:\n%s", tel.Report())
	}

	// The applicable case must use the collapsed path.
	tri := MustNewNest([]string{"N"}, L("i", "0", "N-1"), L("j", "i+1", "N"))
	count.Store(0)
	collapsed, err = CollapsedForAuto(nil, tri, 2, map[string]int64{"N": 50}, 4,
		Schedule{Kind: Static}, func(tid int, idx []int64) { count.Add(1) })
	if err != nil || !collapsed {
		t.Fatalf("triangular nest: collapsed=%v err=%v", collapsed, err)
	}
	if count.Load() != 50*49/2 {
		t.Fatalf("collapsed path ran %d iterations, want %d", count.Load(), 50*49/2)
	}
}

// TestVerifiedRecoveryUnderRootFaults is the acceptance scenario: with
// fault-injected root perturbation active, a WithVerify collapsed run
// still delivers exactly the right iteration tuples.
func TestVerifiedRecoveryUnderRootFaults(t *testing.T) {
	n := MustNewNest([]string{"N"}, L("i", "0", "N-1"), L("j", "i+1", "N"))
	res, err := Collapse(n, 2, WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	restore := faults.Activate(&faults.Plan{
		PerturbRoot: func(level int, x complex128) complex128 { return x + 1.5 },
	})
	defer restore()
	const N = 60
	var sum, count atomic.Int64
	err = CollapsedForCtx(context.Background(), res, map[string]int64{"N": N}, 4,
		Schedule{Kind: Dynamic, Chunk: 7},
		func(tid int, idx []int64) {
			i, j := idx[0], idx[1]
			if i < 0 || i >= N-1 || j <= i || j >= N {
				t.Errorf("tuple (%d,%d) out of domain", i, j)
			}
			sum.Add(i*1_000_003 + j)
			count.Add(1)
		})
	if err != nil {
		t.Fatal(err)
	}
	var wantSum, wantCount int64
	for i := int64(0); i < N-1; i++ {
		for j := i + 1; j < N; j++ {
			wantSum += i*1_000_003 + j
			wantCount++
		}
	}
	if count.Load() != wantCount || sum.Load() != wantSum {
		t.Fatalf("perturbed run visited wrong tuples: count %d/%d sum %d/%d",
			count.Load(), wantCount, sum.Load(), wantSum)
	}
}

// TestInjectedDelayCancellation uses the delay injector to make chunks
// slow enough that a deadline expires mid-run.
func TestInjectedDelayCancellation(t *testing.T) {
	_, res := triangular(t)
	restore := faults.Activate(&faults.Plan{ChunkDelay: 2 * time.Millisecond})
	defer restore()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := CollapsedForCtx(ctx, res, map[string]int64{"N": 3000}, 2,
		Schedule{Kind: Dynamic, Chunk: 4},
		func(tid int, idx []int64) {})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestCompilePipelinePanicBecomesError checks the Collapse boundary
// guard: an internal invariant panic surfaces as an inspectable error,
// not a crash.
func TestCompilePipelinePanicBecomesError(t *testing.T) {
	// A nest literal violating Validate invariants (duplicate index
	// names) drives the pipeline into internal-invariant territory.
	bad := &Nest{Params: []string{"N"}, Loops: []nest.Loop{
		L("i", "0", "N"), L("i", "0", "N"),
	}}
	res, err := Collapse(bad, 2)
	if err == nil {
		t.Fatalf("duplicate-index nest collapsed: %v", res)
	}
	// Whether classified or recovered, it must be an error — reaching
	// here at all means no panic escaped.
}

// TestNonAffineClassified checks the applicability taxonomy through the
// public constructor.
func TestNonAffineClassified(t *testing.T) {
	_, err := NewNest([]string{"N"}, L("i", "0", "N"), L("j", "0", "i*i+1"))
	if !errors.Is(err, ErrNonAffine) {
		t.Fatalf("err = %v, want ErrNonAffine", err)
	}
	if !Collapsible(err) {
		t.Error("ErrNonAffine not reported as collapsibility failure")
	}
	deep := MustNewNest([]string{"N"},
		L("a", "0", "N"), L("b", "0", "a+1"), L("c", "0", "b+1"),
		L("d", "0", "c+1"), L("e", "0", "d+1"))
	_, err = Collapse(deep, 5)
	if !errors.Is(err, ErrDegreeTooHigh) {
		t.Fatalf("err = %v, want ErrDegreeTooHigh", err)
	}
	if !Collapsible(err) {
		t.Error("ErrDegreeTooHigh not reported as collapsibility failure")
	}
}
