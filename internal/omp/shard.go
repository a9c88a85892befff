package omp

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/unrank"
)

// DefaultShardChunk is the internal chunking of a shard attempt: the
// interval between cancellation checks and progress callbacks. Small
// enough that a lease heartbeat lands every few hundred microseconds on
// trivial bodies, large enough that the §V recovery amortizes.
const DefaultShardChunk = 4096

// ShardForCtxFrom executes the collapsed ranks [pcLo, pcHi] (inclusive)
// on the worker-private bound b — the shard-level execution hook the
// dist coordinator's executors run on. The shard is processed by the
// collapsed engine as a one-worker team over internal chunks of `chunk`
// iterations (DefaultShardChunk when <= 0), each chunk driven by the §V
// scheme (one costly recovery per chunk, lexicographic advance within),
// with three guarantees:
//
//   - ctx is checked at every chunk boundary, so a canceled context —
//     including a lease the coordinator revoked with
//     faults.ErrLeaseExpired as the cause — stops the attempt
//     cooperatively with an error wrapping faults.ErrCanceled;
//   - progress(done), when non-nil, is invoked after every chunk with
//     the cumulative iteration count: the heartbeat edge lease renewal
//     rides on;
//   - a panic in body (or in an injected fault hook) is recovered and
//     returned as a *faults.PanicError: an executor crash mid-shard
//     costs the attempt, never the process.
//
// When start is non-nil it must be the exact iteration tuple of rank
// pcLo (typically produced by a coordinator batch-recovering all
// planned shard starts with unrank.Bound.RecoverBatch), and the first
// chunk skips its §V recovery entirely — the shard begins at pure
// incrementation cost. start is read-only.
//
// An active fault-injection plan is consulted once per shard
// (faults.InjectShard) and once per chunk (faults.InjectChunk, with the
// team-local worker id 0), so chaos harnesses can kill, stall or fail
// attempts at exact coordinates.
//
// done reports the iterations completed in full before the error (0 on
// a clean run's completion means an empty shard). Effects of a failed
// attempt are the caller's to discard: the §V engine has already invoked
// body for the completed prefix.
func ShardForCtxFrom(ctx context.Context, worker int, b *unrank.Bound, start []int64,
	pcLo, pcHi, chunk int64,
	progress func(done int64), body func(pc int64, idx []int64)) (done int64, err error) {
	if pcLo > pcHi {
		return 0, nil
	}
	if chunk <= 0 {
		chunk = DefaultShardChunk
	}
	end, err := pcEnd(pcHi)
	if err != nil {
		return 0, err
	}
	if start != nil && len(start) != b.Depth() {
		return 0, fmt.Errorf("omp: shard start tuple has length %d, want %d", len(start), b.Depth())
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("omp: shard executor %d: %w", worker, faults.Recovered(r))
		}
	}()
	if err := faults.InjectShard(worker, pcLo, pcHi); err != nil {
		return 0, fmt.Errorf("omp: injected fault at shard [%d,%d]: %w", pcLo, pcHi, err)
	}
	e := &engine{bounds: []*unrank.Bound{b}, lo: pcLo, hi: end, start: start,
		sched: Schedule{Kind: Dynamic, Chunk: chunk}}
	_, err = e.run(ctx, nil, false, func(_ int, b *unrank.Bound, clo, chi int64, idx []int64) error {
		if err := core.ForRangeFrom(b, clo, chi-1, idx, body); err != nil {
			return err
		}
		done += chi - clo
		if progress != nil {
			progress(done)
		}
		return nil
	})
	return done, err
}
