package omp

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/unrank"
)

// DefaultShardChunk is the internal chunking of a shard attempt: the
// interval between cancellation checks. Small enough that a canceled
// run stops within a few hundred microseconds on trivial bodies, large
// enough that the per-chunk cancellation check and dispatch amortize.
// Only an attempt's first chunk pays the §V recovery: each later one
// starts right after its predecessor, so the engine skips to it.
const DefaultShardChunk = 4096

// ShardForCtx executes the collapsed ranks [pcLo, pcHi] (inclusive)
// on the worker-private bound b — the shard-level execution hook the
// dist coordinator's executors run on. The shard is processed by the
// collapsed engine as a one-worker team over internal chunks of `chunk`
// iterations (DefaultShardChunk when <= 0), each chunk driven by the §V
// scheme (lexicographic advance within; the costly recovery only at the
// attempt's first chunk, later ones skip on from their predecessor's
// last tuple), with two guarantees:
//
//   - ctx is checked at every chunk boundary, so a canceled context —
//     the run failed elsewhere, or its caller gave up — stops the
//     attempt cooperatively with an error wrapping faults.ErrCanceled;
//   - a panic in body (or in an injected fault hook) is recovered and
//     returned as a *faults.PanicError: an executor crash mid-shard
//     costs the attempt, never the process.
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
func ShardForCtx(ctx context.Context, worker int, b *unrank.Bound,
	pcLo, pcHi, chunk int64, body func(pc int64, idx []int64)) (done int64, err error) {
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
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("omp: shard executor %d: %w", worker, faults.Recovered(r))
		}
	}()
	if err := faults.InjectShard(worker, pcLo, pcHi); err != nil {
		return 0, fmt.Errorf("omp: injected fault at shard [%d,%d]: %w", pcLo, pcHi, err)
	}
	e := &engine{members: []*member{{b: b}}, lo: pcLo, hi: end,
		sched: Schedule{Kind: Dynamic, Chunk: chunk}}
	_, err = e.run(ctx, nil, false, func(_ int, b *unrank.Bound, clo, chi int64, idx []int64) error {
		if err := core.ForRangeFrom(b, clo, chi-1, idx, body); err != nil {
			return err
		}
		done += chi - clo
		return nil
	})
	return done, err
}
