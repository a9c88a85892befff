package omp

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/faults"
)

// runnerScheds are the clauses of the runner parity matrix.
var runnerScheds = []Schedule{
	{Kind: Static},
	{Kind: StaticChunk, Chunk: 7},
	{Kind: Dynamic, Chunk: 5},
	{Kind: Guided, Chunk: 4},
	{Kind: ScheduleAuto},
}

// chunkLog collects the chunks a runner emits, in emission order.
type chunkLog struct {
	mu     sync.Mutex
	chunks [][2]int64
}

func (l *chunkLog) add(clo, chi int64) {
	l.mu.Lock()
	l.chunks = append(l.chunks, [2]int64{clo, chi})
	l.mu.Unlock()
}

// checkCover fails unless the chunks tile [lo, hi) exactly once.
func checkCover(t *testing.T, name string, chunks [][2]int64, lo, hi int64) {
	t.Helper()
	seen := make([]int, hi-lo)
	for _, c := range chunks {
		if c[0] < lo || c[1] > hi || c[0] >= c[1] {
			t.Fatalf("%s: chunk %v outside [%d,%d) or empty", name, c, lo, hi)
		}
		for i := c[0]; i < c[1]; i++ {
			seen[i-lo]++
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("%s: iteration %d ran %d times", name, lo+int64(i), n)
		}
	}
}

func sortedChunks(c [][2]int64) [][2]int64 {
	c = slices.Clone(c)
	slices.SortFunc(c, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	return c
}

// TestRunnerParity checks that the void runner and the context runner
// are one engine at every team size: both tile [lo, hi) exactly once
// with the same chunks (the identical ordered list at one thread), a
// body panic re-panics from ParallelForChunks as a *faults.PanicError,
// and a fault-injection plan is consulted at chunk boundaries even on a
// single thread.
func TestRunnerParity(t *testing.T) {
	const lo, hi = 3, 103
	for _, threads := range []int{1, 2, 3} {
		for _, sched := range runnerScheds {
			name := fmt.Sprintf("threads=%d %s,%d", threads, sched.Kind, sched.Chunk)
			var void, ctx chunkLog
			ParallelForChunks(threads, lo, hi, sched, func(_ int, clo, chi int64) { void.add(clo, chi) })
			if err := ParallelForChunksCtx(nil, threads, lo, hi, sched, func(_ int, clo, chi int64) error {
				ctx.add(clo, chi)
				return nil
			}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkCover(t, name+" ParallelForChunks", void.chunks, lo, hi)
			checkCover(t, name+" ParallelForChunksCtx", ctx.chunks, lo, hi)
			a, b := void.chunks, ctx.chunks
			if threads > 1 {
				a, b = sortedChunks(a), sortedChunks(b)
			}
			if !slices.Equal(a, b) {
				t.Fatalf("%s: chunk lists differ\nParallelForChunks:    %v\nParallelForChunksCtx: %v", name, a, b)
			}
		}
	}

	for _, threads := range []int{1, 3} {
		func() {
			defer func() {
				r := recover()
				if pe, ok := r.(*faults.PanicError); !ok || pe.Value != "parity boom" {
					t.Errorf("threads=%d: re-panicked %T %v, want *faults.PanicError(parity boom)", threads, r, r)
				}
			}()
			ParallelForChunks(threads, lo, hi, Schedule{Kind: Dynamic, Chunk: 5}, func(_ int, clo, _ int64) {
				if clo >= 50 {
					panic("parity boom")
				}
			})
		}()
	}

	boom := errors.New("injected at chunk")
	var consulted atomic.Int64
	restore := faults.Activate(&faults.Plan{
		OnChunk: func(_ int, clo, _ int64) error {
			consulted.Add(1)
			if clo >= 50 {
				return boom
			}
			return nil
		},
	})
	defer restore()
	func() {
		defer func() {
			err, _ := recover().(error)
			if !errors.Is(err, boom) {
				t.Errorf("threads=1: injected fault surfaced as %v, want a panic wrapping it", err)
			}
		}()
		ParallelForChunks(1, lo, hi, Schedule{Kind: StaticChunk, Chunk: 7}, func(int, int64, int64) {})
	}()
	if consulted.Load() == 0 {
		t.Error("threads=1: fault-injection plan never consulted")
	}
}
