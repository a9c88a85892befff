package omp

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/nest"
	"repro/internal/unrank"
)

var allScheds = []Schedule{
	{Kind: Static},
	{Kind: StaticChunk, Chunk: 3},
	{Kind: StaticChunk, Chunk: 1},
	{Kind: Dynamic},
	{Kind: Dynamic, Chunk: 5},
	{Kind: Guided},
	{Kind: Guided, Chunk: 4},
}

func TestParallelForExactlyOnce(t *testing.T) {
	for _, sched := range allScheds {
		for _, threads := range []int{1, 2, 3, 7} {
			for _, n := range []int64{0, 1, 5, 64, 1000} {
				counts := make([]int32, n)
				ParallelFor(threads, 0, n, sched, func(tid int, i int64) {
					atomic.AddInt32(&counts[i], 1)
				})
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("sched %v threads=%d n=%d: index %d ran %d times", sched, threads, n, i, c)
					}
				}
			}
		}
	}
}

func TestParallelForNonZeroLo(t *testing.T) {
	var sum atomic.Int64
	ParallelFor(4, 10, 20, Schedule{Kind: Dynamic, Chunk: 3}, func(tid int, i int64) {
		sum.Add(i)
	})
	if got := sum.Load(); got != 145 {
		t.Errorf("sum = %d, want 145", got)
	}
}

func TestStaticContiguity(t *testing.T) {
	// Static must hand each thread a single contiguous block, in order.
	var mu sync.Mutex
	blocks := map[int][][2]int64{}
	ParallelForChunks(4, 0, 103, Schedule{Kind: Static}, func(tid int, lo, hi int64) {
		mu.Lock()
		blocks[tid] = append(blocks[tid], [2]int64{lo, hi})
		mu.Unlock()
	})
	var totalLen int64
	for tid, bs := range blocks {
		if len(bs) != 1 {
			t.Errorf("thread %d got %d blocks", tid, len(bs))
		}
		totalLen += bs[0][1] - bs[0][0]
	}
	if totalLen != 103 {
		t.Errorf("covered %d iterations, want 103", totalLen)
	}
	// Block sizes must differ by at most 1 (perfect balance in counts).
	var minSz, maxSz int64 = 1 << 62, 0
	for _, bs := range blocks {
		sz := bs[0][1] - bs[0][0]
		if sz < minSz {
			minSz = sz
		}
		if sz > maxSz {
			maxSz = sz
		}
	}
	if maxSz-minSz > 1 {
		t.Errorf("static imbalance in iteration counts: min %d max %d", minSz, maxSz)
	}
}

func TestStaticChunkRoundRobin(t *testing.T) {
	// With chunk=2 and 3 threads over [0,12), thread 0 gets [0,2),[6,8), etc.
	var mu sync.Mutex
	owner := map[int64]int{}
	ParallelForChunks(3, 0, 12, Schedule{Kind: StaticChunk, Chunk: 2}, func(tid int, lo, hi int64) {
		mu.Lock()
		owner[lo] = tid
		mu.Unlock()
		if hi-lo != 2 {
			t.Errorf("chunk [%d,%d) wrong size", lo, hi)
		}
	})
	want := map[int64]int{0: 0, 2: 1, 4: 2, 6: 0, 8: 1, 10: 2}
	for lo, tid := range want {
		if owner[lo] != tid {
			t.Errorf("chunk at %d owned by %d, want %d", lo, owner[lo], tid)
		}
	}
}

func TestGuidedChunksDecreaseAndCover(t *testing.T) {
	var mu sync.Mutex
	var sizes []int64
	var covered int64
	ParallelForChunks(4, 0, 1000, Schedule{Kind: Guided}, func(tid int, lo, hi int64) {
		mu.Lock()
		sizes = append(sizes, hi-lo)
		covered += hi - lo
		mu.Unlock()
	})
	if covered != 1000 {
		t.Errorf("guided covered %d", covered)
	}
	if len(sizes) < 5 {
		t.Errorf("guided produced only %d chunks", len(sizes))
	}
}

func TestScheduleString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" ||
		Guided.String() != "guided" || StaticChunk.String() != "static,chunk" {
		t.Error("Kind.String mismatch")
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

func correlationResult() *core.Result {
	n := nest.MustNew([]string{"N"},
		nest.L("i", "0", "N-1"),
		nest.L("j", "i+1", "N"),
	)
	return core.MustCollapse(n, 2, unrank.Options{})
}

func TestRunCollapsedWithStats(t *testing.T) {
	r := correlationResult()
	params := map[string]int64{"N": 60}
	threads := 12
	var n atomic.Int64
	cs, err := CollapsedForChunkTelemetryCtx(nil, r, params, threads, Schedule{Kind: Static}, nil,
		func(tid int, idx []int64) { n.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != cs.Total {
		t.Errorf("executed %d, total %d", n.Load(), cs.Total)
	}
	// §V static scheme: one costly recovery per thread.
	if cs.Stats.RootEvals > int64(threads) {
		t.Errorf("RootEvals = %d, want <= %d (once per thread)", cs.Stats.RootEvals, threads)
	}
	if cs.Stats.RootEvals == 0 {
		t.Error("no root evaluations recorded")
	}
}

// TestCollapsedForSIMD checks the §VI.A window shape: every batch holds
// 1..vlength tuples, and only a thread's last batch may be partial.
// Visit-set parity is checked by TestCollapsedForExactlyOnce.
func TestCollapsedForSIMD(t *testing.T) {
	r := correlationResult()
	params := map[string]int64{"N": 30}
	const threads = 3
	for _, vlength := range []int{1, 4, 7, 16} {
		var partial [threads]int
		var mu sync.Mutex
		err := CollapsedForSIMD(r, params, threads, vlength, func(tid int, batch [][]int64) {
			mu.Lock()
			defer mu.Unlock()
			if len(batch) == 0 || len(batch) > vlength {
				t.Errorf("batch size %d with vlength %d", len(batch), vlength)
			}
			if partial[tid] > 0 {
				t.Errorf("vlength %d: thread %d got a batch after a partial one", vlength, tid)
			}
			if len(batch) < vlength {
				partial[tid]++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCollapsedForWarp checks the §VI.B lane distribution: lane w runs
// exactly the ranks pc ≡ w+1 (mod W). Visit-set parity is checked by
// TestCollapsedForExactlyOnce.
func TestCollapsedForWarp(t *testing.T) {
	r := correlationResult()
	params := map[string]int64{"N": 22}
	total := int64(21 * 22 / 2)
	for _, W := range []int{1, 2, 8, 32} {
		var ran atomic.Int64
		err := CollapsedForWarp(r, params, W, func(lane int, pc int64, idx []int64) {
			ran.Add(1)
			if (pc-1)%int64(W) != int64(lane) {
				t.Errorf("W=%d: lane %d executed pc %d", W, lane, pc)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if ran.Load() != total {
			t.Fatalf("W=%d: %d iterations, want %d", W, ran.Load(), total)
		}
	}
}

func TestEmptySpace(t *testing.T) {
	r := correlationResult()
	params := map[string]int64{"N": 1} // (N-1)N/2 = 0
	called := false
	if err := CollapsedFor(r, params, 4, Schedule{Kind: Static}, func(int, []int64) { called = true }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("body called on empty space")
	}
	if err := CollapsedForSIMD(r, params, 2, 4, func(int, [][]int64) { called = true }); err != nil {
		t.Fatal(err)
	}
	if err := CollapsedForWarp(r, params, 4, func(int, int64, []int64) { called = true }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("body called on empty space (simd/warp)")
	}
}
