package serve

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// TestExecuteShardedMatchesEnumeration pins the happy path of the
// sharded execute engine: Shards > 0 routes through the internal/dist
// coordinator and the answer is bit-identical to the unsharded oracle.
func TestExecuteShardedMatchesEnumeration(t *testing.T) {
	_, c := startServer(t, Config{Threads: 2})
	const N = 60
	tuples, checksum := triEnum(t, N)

	req := triRequest(N)
	req.Shards = 8
	ex, err := c.Execute(context.Background(), req)
	if err != nil {
		t.Fatalf("sharded execute: %v", err)
	}
	if !ex.Sharded {
		t.Fatalf("response not marked sharded: %+v", ex)
	}
	if ex.Shards != 8 {
		t.Fatalf("planned shards = %d, want 8", ex.Shards)
	}
	if ex.Iterations != int64(len(tuples)) || ex.Checksum != checksum {
		t.Fatalf("sharded execute = %d iters checksum %d, want %d/%d",
			ex.Iterations, ex.Checksum, len(tuples), checksum)
	}
	if !ex.Collapsed || ex.Degraded {
		t.Fatalf("clean sharded run reported wrong engine: %+v", ex)
	}
	if ex.ShardRetries != 0 {
		t.Fatalf("clean run has nonzero recovery ledger: %+v", ex)
	}
}

// TestExecuteShardedSurvivesWorkerPanics is the serve-level crash-chaos
// requirement: with a fault plan panicking shard executors mid-request,
// a sharded /v1/execute still answers 200 with the exactly-correct
// iteration count and checksum — each panic costs one shard attempt
// (retried under the coordinator's degradation ladder), never the
// request. The unsharded engine on the same plan fails the whole
// request, which is precisely the contrast the sharded mode buys.
func TestExecuteShardedSurvivesWorkerPanics(t *testing.T) {
	reg := telemetry.New()
	_, c := startServer(t, Config{
		Threads:  2,
		Registry: reg,
		Logf:     func(string, ...any) {}, // injected panics are expected noise
	})
	const N = 80
	tuples, checksum := triEnum(t, N)

	// Warm the compile cache outside the fault window so injection only
	// ever hits shard execution.
	if _, err := c.Compile(context.Background(), triRequest(N)); err != nil {
		t.Fatalf("warm compile: %v", err)
	}

	var attempts atomic.Int64
	restore := faults.Activate(&faults.Plan{
		OnShard: func(worker int, lo, hi int64) error {
			if attempts.Add(1)%4 == 0 {
				panic("chaos: injected shard executor crash")
			}
			return nil
		},
	})
	defer restore()

	req := triRequest(N)
	req.Shards = 16
	ex, err := c.Execute(context.Background(), req)
	if err != nil {
		t.Fatalf("sharded execute under shard panics: %v", err)
	}
	if !ex.Sharded {
		t.Fatalf("response not marked sharded: %+v", ex)
	}
	if ex.Iterations != int64(len(tuples)) || ex.Checksum != checksum {
		t.Fatalf("recovered execute = %d iters checksum %d, want %d/%d",
			ex.Iterations, ex.Checksum, len(tuples), checksum)
	}
	// 16 shards with every 4th attempt crashing: recovery must have
	// actually happened, and it must be visible in the response ledger
	// and the server registry.
	if ex.ShardRetries == 0 {
		t.Fatalf("no shard retries recorded despite injected crashes: %+v", ex)
	}
	if got := reg.Snapshot().Counters["dist.retries"]; got == 0 {
		t.Fatalf("dist.retries counter is zero on the server registry")
	}
}

// TestExecuteShardsIgnoredWhenNotCollapsible checks the downgrade path:
// a nest outside the technique with Shards set still answers via the
// uncollapsed fallback (Shards silently ignored), matching the
// unsharded downgrade contract.
func TestExecuteShardsIgnoredWhenNotCollapsible(t *testing.T) {
	_, c := startServer(t, Config{Threads: 2})
	const N = 48
	tuples, checksum := triEnum(t, N)

	// Perturbed root selection makes the compile fail deterministically
	// with ErrNoConvenientRoot — a Collapsible error, so execute must
	// downgrade to the uncollapsed engine even though Shards was set.
	restore := faults.Activate(&faults.Plan{
		PerturbRoot: func(level int, x complex128) complex128 { return x + 1000 },
	})
	defer restore()

	req := triRequest(N)
	req.Shards = 4
	ex, err := c.Execute(context.Background(), req)
	if err != nil {
		t.Fatalf("execute with uncollapsible compile: %v", err)
	}
	if ex.Sharded || ex.Collapsed {
		t.Fatalf("downgraded run claims sharded/collapsed engine: %+v", ex)
	}
	if ex.Iterations != int64(len(tuples)) || ex.Checksum != checksum {
		t.Fatalf("downgraded execute = %d iters checksum %d, want %d/%d",
			ex.Iterations, ex.Checksum, len(tuples), checksum)
	}
}
