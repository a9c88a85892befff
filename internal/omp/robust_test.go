package omp

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/nest"
)

// TestWorkerPanicReturnsPanicError forces a panic inside one worker and
// checks the engine survives: the team drains, the first panic comes
// back as a *faults.PanicError carrying the worker's stack, and no
// goroutine deadlocks.
func TestWorkerPanicReturnsPanicError(t *testing.T) {
	for _, sched := range []Schedule{
		{Kind: Static},
		{Kind: StaticChunk, Chunk: 3},
		{Kind: Dynamic, Chunk: 2},
		{Kind: Guided},
	} {
		err := ParallelForChunksCtx(context.Background(), 4, 0, 1000, sched,
			func(tid int, clo, chi int64) error {
				if clo >= 500 {
					panic("worker boom")
				}
				return nil
			})
		if err == nil {
			t.Fatalf("%s: panic not reported", sched.Kind)
		}
		pe := faults.AsPanic(err)
		if pe == nil {
			t.Fatalf("%s: error %v carries no PanicError", sched.Kind, err)
		}
		if pe.Value != "worker boom" {
			t.Errorf("%s: panic value %v", sched.Kind, pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "robust_test") {
			t.Errorf("%s: stack does not reach the panic site:\n%s", sched.Kind, pe.Stack)
		}
	}
}

// TestParallelForChunksRepanicsOnCaller checks the void API: a worker
// panic is re-panicked on the calling goroutine as a recoverable
// *faults.PanicError instead of killing the process from a worker.
func TestParallelForChunksRepanicsOnCaller(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic swallowed")
		}
		pe, ok := r.(*faults.PanicError)
		if !ok {
			t.Fatalf("re-panicked value is %T, want *faults.PanicError", r)
		}
		if pe.Value != "void boom" {
			t.Errorf("panic value %v", pe.Value)
		}
	}()
	ParallelForChunks(4, 0, 100, Schedule{Kind: Dynamic}, func(tid int, clo, chi int64) {
		panic("void boom")
	})
}

// TestCancellationStopsAtChunkBoundary cancels the context mid-run and
// checks the team stops cooperatively with ErrCanceled, without running
// every chunk.
func TestCancellationStopsAtChunkBoundary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	err := ParallelForChunksCtx(ctx, 4, 0, 1_000_000, Schedule{Kind: Dynamic, Chunk: 10},
		func(tid int, clo, chi int64) error {
			if done.Add(chi-clo) > 5000 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, faults.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if n := done.Load(); n >= 1_000_000 {
		t.Errorf("cancellation did not stop the run early (ran %d)", n)
	}
}

// TestBodyErrorStopsTeam checks an error return from one chunk stops
// every worker at its next boundary and is the error reported.
func TestBodyErrorStopsTeam(t *testing.T) {
	sentinel := errors.New("chunk failed")
	var after atomic.Int64
	err := ParallelForChunksCtx(nil, 4, 0, 100000, Schedule{Kind: Dynamic, Chunk: 1},
		func(tid int, clo, chi int64) error {
			if clo == 50 {
				return sentinel
			}
			after.Add(1)
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the body's error", err)
	}
	if after.Load() >= 100000 {
		t.Error("team did not stop after the failure")
	}
}

// TestInjectedChunkFault checks the test-only fault-injection plan is
// consulted at chunk boundaries: an injected error stops the run, and an
// injected delay slows it observably.
func TestInjectedChunkFault(t *testing.T) {
	boom := errors.New("injected")
	restore := faults.Activate(&faults.Plan{
		OnChunk: func(tid int, clo, chi int64) error {
			if clo >= 32 {
				return boom
			}
			return nil
		},
		ChunkDelay: time.Microsecond,
	})
	defer restore()
	err := ParallelForChunksCtx(nil, 2, 0, 1000, Schedule{Kind: StaticChunk, Chunk: 8},
		func(tid int, clo, chi int64) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected fault", err)
	}
}

// TestUncollapsedForFallback runs the degradation-ladder bottom rung
// over a triangular nest — including a quadratic (non-affine) bound the
// collapsed path cannot model — and checks the iteration count.
func TestUncollapsedForFallback(t *testing.T) {
	tri := nest.MustNew([]string{"N"},
		nest.L("i", "0", "N"),
		nest.L("j", "0", "i+1"),
	)
	var count atomic.Int64
	err := UncollapsedFor(nil, tri, map[string]int64{"N": 100}, 4, Schedule{Kind: Static},
		func(tid int, idx []int64) { count.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 100*101/2 {
		t.Fatalf("triangular count = %d, want %d", count.Load(), 100*101/2)
	}

	// Quadratic upper bound: rejected by nest.New, so build it directly —
	// exactly the shape the fallback exists for.
	quad := &nest.Nest{
		Params: []string{"N"},
		Loops: []nest.Loop{
			nest.L("i", "0", "N"),
			nest.L("j", "0", "i*i+1"),
		},
	}
	count.Store(0)
	err = UncollapsedFor(nil, quad, map[string]int64{"N": 50}, 4, Schedule{Kind: Dynamic, Chunk: 4},
		func(tid int, idx []int64) { count.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for i := int64(0); i < 50; i++ {
		want += i*i + 1
	}
	if count.Load() != want {
		t.Fatalf("quadratic count = %d, want %d", count.Load(), want)
	}

	// Cancellation applies to the fallback too.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = UncollapsedFor(ctx, tri, map[string]int64{"N": 100}, 4, Schedule{Kind: Dynamic},
		func(tid int, idx []int64) {})
	if !errors.Is(err, faults.ErrCanceled) {
		t.Fatalf("canceled fallback err = %v, want ErrCanceled", err)
	}
}
