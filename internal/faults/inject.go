package faults

import (
	"sync/atomic"
	"time"
)

// Plan is a test-only fault-injection plan. While a plan is active
// (Activate), the runtime consults it at well-defined points:
//
//   - the unranker passes every closed-form root evaluation through
//     PerturbRoot, so tests can force the exact-correction and
//     binary-search fallback paths deterministically (both end in an
//     exact check, so no perturbation yields a wrong tuple);
//   - the parallel runtime calls OnChunk before executing each schedule
//     chunk, so tests can inject delays (sleep inside the hook), errors
//     (return non-nil) or worker panics (panic inside the hook) at exact
//     chunk coordinates.
//
// All hooks may run concurrently from multiple workers and must be
// safe for concurrent use. Production builds pay one atomic load per
// consultation point (per chunk, not per iteration) when no plan is
// active.
type Plan struct {
	// PerturbRoot maps the float evaluation of a level's convenient
	// root to the value the unranker will see. level is the 0-based
	// nest level being recovered.
	PerturbRoot func(level int, x complex128) complex128
	// OnChunk runs before each schedule chunk [clo, chi) on worker tid.
	// A non-nil return aborts the run with that error; a panic inside
	// exercises the worker-panic path; sleeping injects delay.
	OnChunk func(tid int, clo, chi int64) error
	// ChunkDelay, when positive, sleeps this long before every chunk
	// (a shorthand for slowing runs enough to observe cancellation).
	ChunkDelay time.Duration
	// OnShard runs at the start of every shard attempt [lo, hi]
	// (inclusive pc bounds) on executor worker. A panic inside emulates
	// an executor crash mid-shard (the attempt's buffered effects are
	// discarded and the shard is retried); a non-nil return fails the
	// attempt through the same retry ladder.
	OnShard func(worker int, lo, hi int64) error
}

// active is the process-wide injection plan; nil means no injection.
var active atomic.Pointer[Plan]

// Activate installs p as the process-wide fault plan and returns a
// function restoring the previous plan. Tests must call the restore
// function (defer Activate(p)()); overlapping activations from parallel
// tests are not supported.
func Activate(p *Plan) (restore func()) {
	prev := active.Swap(p)
	return func() { active.Store(prev) }
}

// Active returns the current fault plan, or nil when none is installed
// (the production state).
func Active() *Plan {
	return active.Load()
}

// InjectChunk runs the active plan's chunk hooks for chunk [clo, chi)
// on worker tid; it returns nil when no plan is active.
func InjectChunk(tid int, clo, chi int64) error {
	p := Active()
	if p == nil {
		return nil
	}
	if p.ChunkDelay > 0 {
		time.Sleep(p.ChunkDelay)
	}
	if p.OnChunk != nil {
		return p.OnChunk(tid, clo, chi)
	}
	return nil
}

// InjectShard runs the active plan's shard hook for shard attempt
// [lo, hi] on executor worker; it returns nil when no plan is active.
func InjectShard(worker int, lo, hi int64) error {
	if p := Active(); p != nil && p.OnShard != nil {
		return p.OnShard(worker, lo, hi)
	}
	return nil
}

// PerturbRoot applies the active plan's root perturbation, if any.
func PerturbRoot(level int, x complex128) complex128 {
	p := Active()
	if p == nil || p.PerturbRoot == nil {
		return x
	}
	return p.PerturbRoot(level, x)
}
