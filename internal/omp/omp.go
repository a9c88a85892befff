// Package omp is a small OpenMP-style parallel-for runtime over
// goroutines. It substitutes for the OpenMP constructs used in the
// paper's evaluation (§VII): worksharing of an integer iteration range
// across a fixed team of threads under the static, static-chunked,
// dynamic and guided schedules, plus the collapsed-loop execution schemes
// of §V (each chunk's first index tuple positioned once, then
// lexicographic incrementation), §VI.A (SIMD batches) and §VI.B
// (warp-strided lanes). A chunk start costs one closed-form index
// recovery unless the worker's previous chunk ended a few innermost runs
// before it; the worker then increments on from its last tuple instead.
//
// Scheduling semantics follow the OpenMP 4.0 description:
//
//   - Static: the range is divided into one contiguous block per thread,
//     of near-equal size (block-cyclic with a single block).
//   - StaticChunk: chunks of the given size are assigned round-robin to
//     threads (thread t runs chunks t, t+P, t+2P, …).
//   - Dynamic: each thread repeatedly grabs the next chunk (default size
//     1) from a shared counter.
//   - Guided: chunk sizes start at remaining/P and decay exponentially,
//     bounded below by the requested chunk size (default 1).
package omp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
)

// Kind enumerates the worksharing schedules.
type Kind int

const (
	Static Kind = iota
	StaticChunk
	Dynamic
	Guided
	// ScheduleAuto asks the runtime to choose: the autotuning planner
	// (internal/autotune, surfaced as nonrect.CollapsedForTuned and the
	// daemon's "auto" schedule clause) resolves it to a concrete
	// (kind, chunk, workers) decision by simulating candidates against
	// the nest's measured work vector. An unresolved ScheduleAuto that
	// reaches the worksharing engine directly degrades to guided via
	// Resolved() — the safest static fallback under unknown imbalance.
	ScheduleAuto
)

// String returns the OpenMP clause spelling of the schedule kind.
func (k Kind) String() string {
	switch k {
	case Static:
		return "static"
	case StaticChunk:
		return "static,chunk"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	case ScheduleAuto:
		return "auto"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Schedule is a schedule clause: a kind plus an optional chunk size.
type Schedule struct {
	Kind  Kind
	Chunk int64 // chunk size; defaults: StaticChunk/Dynamic/Guided -> 1
}

func (s Schedule) chunk() int64 {
	if s.Chunk > 0 {
		return s.Chunk
	}
	return 1
}

// ParseSchedule parses the body of a schedule clause. It is the one
// grammar shared by pragmas, the CLIs' -sched flags and the daemon's
// "schedule" field: static, dynamic, guided or auto, each with an
// optional ",N" chunk (N >= 1), or the empty clause for static.
// Whitespace around the tokens is ignored, so a pragma's "dynamic, 16"
// parses, and "static,N" is StaticChunk. Any other kind, or a chunk
// that is not a positive integer, is an error.
func ParseSchedule(clause string) (Schedule, error) {
	kind, chunk, hasChunk := strings.Cut(clause, ",")
	var s Schedule
	switch strings.TrimSpace(kind) {
	case "static":
		s.Kind = Static
	case "dynamic":
		s.Kind = Dynamic
	case "guided":
		s.Kind = Guided
	case "auto":
		s.Kind = ScheduleAuto
	case "":
		if !hasChunk {
			return Schedule{Kind: Static}, nil
		}
		fallthrough
	default:
		return Schedule{}, fmt.Errorf("omp: schedule %q: unknown kind", clause)
	}
	if hasChunk {
		n, err := strconv.ParseInt(strings.TrimSpace(chunk), 10, 64)
		if err != nil || n < 1 {
			return Schedule{}, fmt.Errorf("omp: schedule %q: chunk is not a positive integer", clause)
		}
		s.Chunk = n
		if s.Kind == Static {
			s.Kind = StaticChunk
		}
	}
	return s, nil
}

// Resolved maps ScheduleAuto to its unplanned fallback (guided, which
// self-balances without a measured work vector); concrete schedules
// pass through unchanged. The chunk planners resolve implicitly, so an
// auto schedule is always executable even without the planner.
func (s Schedule) Resolved() Schedule {
	if s.Kind == ScheduleAuto {
		return Schedule{Kind: Guided, Chunk: s.Chunk}
	}
	return s
}

// DefaultThreads returns the default team size (GOMAXPROCS).
func DefaultThreads() int { return runtime.GOMAXPROCS(0) }

// chunkPlan is a schedule's partition of [lo, hi) across a team. each
// is called once per thread (possibly concurrently) and emits that
// thread's chunks in order; the dynamic and guided queues are the
// plan's own state. emit returns false to stop the thread's chunk
// stream early (cancellation or a failure elsewhere in the team).
type chunkPlan struct {
	threads int64
	lo, hi  int64
	sched   Schedule // resolved
	// The shared queues sit on their own cache line, away from the
	// read-only fields every chunk consults.
	_    [64]byte
	next atomic.Int64 // dynamic: first unclaimed iteration
	mu   sync.Mutex   // guided: guards cur
	cur  int64
}

// init sets the plan up in place (it holds a mutex and an atomic).
func (p *chunkPlan) init(threads int, lo, hi int64, sched Schedule) error {
	p.threads, p.lo, p.hi, p.sched, p.cur = int64(threads), lo, hi, sched.Resolved(), lo
	p.next.Store(lo)
	if k := p.sched.Kind; k < Static || k > Guided {
		return fmt.Errorf("omp: unknown schedule kind %d", k)
	}
	return nil
}

func (p *chunkPlan) each(tid int, emit func(clo, chi int64) bool) {
	lo, hi, t := p.lo, p.hi, int64(tid)
	switch p.sched.Kind {
	case Static:
		n := hi - lo
		base, rem := n/p.threads, n%p.threads
		size, start := base, lo+t*base
		if t < rem {
			size++
			start += t
		} else {
			start += rem
		}
		if size > 0 {
			emit(start, start+size)
		}
	case StaticChunk:
		ch := p.sched.chunk()
		clo := lo + t*ch
		if clo < lo { // tid*ch overflowed past MaxInt64
			return
		}
		for clo < hi {
			chi := clo + ch
			if chi > hi || chi < clo { // clo+ch overflow saturates at hi
				chi = hi
			}
			if !emit(clo, chi) {
				return
			}
			next := clo + p.threads*ch
			if next <= clo { // stride overflowed: no further chunks exist
				return
			}
			clo = next
		}
	case Dynamic:
		ch := p.sched.chunk()
		for {
			clo := p.next.Add(ch) - ch
			// clo < lo means the shared counter wrapped past MaxInt64
			// (possible when hi is near the top of the int64 range and
			// several threads race past exhaustion); treat as done.
			if clo >= hi || clo < lo {
				return
			}
			chi := clo + ch
			if chi > hi || chi < clo {
				chi = hi
			}
			if !emit(clo, chi) {
				return
			}
		}
	case Guided:
		for {
			clo, chi, ok := p.grab()
			if !ok || !emit(clo, chi) {
				return
			}
		}
	}
}

// grab claims the next guided chunk: remaining/threads iterations,
// bounded below by the requested chunk size.
func (p *chunkPlan) grab() (int64, int64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur >= p.hi {
		return 0, 0, false
	}
	remaining := p.hi - p.cur
	size := min(max(remaining/p.threads, p.sched.chunk()), remaining)
	clo := p.cur
	p.cur += size
	return clo, clo + size, true
}

// canceled wraps the context's cause in faults.ErrCanceled so callers
// can classify the stop with a single errors.Is test.
func canceled(ctx context.Context) error {
	return fmt.Errorf("omp: %v: %w", context.Cause(ctx), faults.ErrCanceled)
}

// team is the state of one ParallelForChunksCtx run, shared by its
// workers.
type team struct {
	ctx      context.Context
	body     func(tid int, clo, chi int64) error
	stop     atomic.Bool
	errOnce  sync.Once
	firstErr error
	plan     chunkPlan
}

// fail stops the team at its next chunk boundaries; the first error wins.
func (t *team) fail(err error) {
	t.stop.Store(true)
	t.errOnce.Do(func() { t.firstErr = err })
}

// work runs worker tid's chunks, recovering a panic as the team's error.
func (t *team) work(tid int) {
	defer func() {
		if r := recover(); r != nil {
			t.fail(fmt.Errorf("omp: worker %d: %w", tid, faults.Recovered(r)))
		}
	}()
	t.plan.each(tid, func(clo, chi int64) bool {
		if t.stop.Load() {
			return false
		}
		if t.ctx != nil {
			select {
			case <-t.ctx.Done():
				t.fail(canceled(t.ctx))
				return false
			default:
			}
		}
		if err := faults.InjectChunk(tid, clo, chi); err != nil {
			t.fail(fmt.Errorf("omp: injected fault at chunk [%d,%d): %w", clo, chi, err))
			return false
		}
		if err := t.body(tid, clo, chi); err != nil {
			t.fail(err)
			return false
		}
		return true
	})
}

// ParallelForChunksCtx is the fault-tolerant worksharing engine every
// parallel entry point is built on. It partitions [lo, hi) according to
// the schedule and runs body(tid, clo, chi) for each contiguous chunk,
// with three guarantees the plain OpenMP-style loops lack:
//
//   - a panic in body is recovered on the worker, captured with its
//     stack as a *faults.PanicError, and returned as an error — the
//     team drains cleanly at the next chunk boundaries and the process
//     survives;
//   - ctx is checked at every chunk boundary (never mid-chunk), so a
//     canceled context stops the run cooperatively with an error
//     wrapping faults.ErrCanceled;
//   - a non-nil error from body stops the whole team at the next chunk
//     boundaries; the first error (in team observation order) wins.
//
// A nil ctx disables cancellation. An active fault-injection plan
// (faults.Activate, test-only) is consulted before each chunk. A
// one-thread team runs on the calling goroutine.
func ParallelForChunksCtx(ctx context.Context, threads int, lo, hi int64, sched Schedule,
	body func(tid int, clo, chi int64) error) error {
	threads = max(threads, 1)
	if lo < 0 && hi > math.MaxInt64+lo {
		// The extent hi-lo does not fit in int64: the chunk planners'
		// size arithmetic would wrap. Refuse rather than mis-iterate.
		return fmt.Errorf("omp: range [%d,%d) extent exceeds int64: %w", lo, hi, faults.ErrOverflow)
	}
	if hi-lo <= 0 {
		return nil
	}
	t := &team{ctx: ctx, body: body}
	if err := t.plan.init(threads, lo, hi, sched); err != nil {
		return err
	}
	if threads == 1 {
		t.work(0)
		return t.firstErr
	}
	var wg sync.WaitGroup
	wg.Add(threads)
	for tid := 0; tid < threads; tid++ {
		go func() {
			defer wg.Done()
			t.work(tid)
		}()
	}
	wg.Wait()
	return t.firstErr
}

// ParallelForChunks partitions the half-open range [lo, hi) according to
// the schedule and invokes body(tid, clo, chi) for each contiguous chunk
// [clo, chi). It is ParallelForChunksCtx without a context, so every
// team size, one thread included, gets the same chunk plan, the same
// fault-injection consultation at chunk boundaries and the same panic
// capture. All chunks assigned to a thread run on the same goroutine,
// in increasing order for the static schedules.
//
// A panic in body is captured with its stack and re-panicked on the
// caller as a *faults.PanicError, which the caller may recover. Use
// ParallelForChunksCtx to receive it as an error instead.
func ParallelForChunks(threads int, lo, hi int64, sched Schedule, body func(tid int, clo, chi int64)) {
	err := ParallelForChunksCtx(nil, threads, lo, hi, sched,
		func(tid int, clo, chi int64) error {
			body(tid, clo, chi)
			return nil
		})
	if err != nil {
		if pe := faults.AsPanic(err); pe != nil {
			panic(pe)
		}
		panic(err) // injected faults or range overflow: the void body returns no errors
	}
}

// ParallelFor runs body(tid, i) for every i in [lo, hi) under the given
// schedule and team size.
func ParallelFor(threads int, lo, hi int64, sched Schedule, body func(tid int, i int64)) {
	ParallelForChunks(threads, lo, hi, sched, func(tid int, clo, chi int64) {
		for i := clo; i < chi; i++ {
			body(tid, i)
		}
	})
}

// ParallelForCtx is ParallelFor with cooperative cancellation checked at
// chunk boundaries and worker panics returned as *faults.PanicError: the
// context-aware, fault-tolerant form of the plain worksharing loop. A
// canceled ctx stops the run at the next chunk boundary with an error
// wrapping faults.ErrCanceled.
func ParallelForCtx(ctx context.Context, threads int, lo, hi int64, sched Schedule,
	body func(tid int, i int64)) error {
	return ParallelForChunksCtx(ctx, threads, lo, hi, sched,
		func(tid int, clo, chi int64) error {
			for i := clo; i < chi; i++ {
				body(tid, i)
			}
			return nil
		})
}
