package omp

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/nest"
	"repro/internal/telemetry"
	"repro/internal/unrank"
)

// TestCollapsedForRangesTelemetry checks the engine counters reach the
// registry and are mutually consistent.
func TestCollapsedForRangesTelemetry(t *testing.T) {
	n := nest.MustNew([]string{"N"}, nest.L("i", "0", "N"), nest.L("j", "0", "i+1"))
	res, err := core.Collapse(n, 2, unrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"N": 12}
	tel := telemetry.New()
	st, err := CollapsedForRangesStats(res, params, 3, Schedule{Kind: StaticChunk, Chunk: 4}, tel,
		func(int, int64, []int64, int64, int64) {})
	if err != nil {
		t.Fatal(err)
	}
	if got := tel.Counter("omp.range_batches").Value(); got != st.Batches {
		t.Errorf("omp.range_batches = %d, want %d", got, st.Batches)
	}
	if got := tel.Counter("omp.range_carries").Value(); got != st.Carries {
		t.Errorf("omp.range_carries = %d, want %d", got, st.Carries)
	}
	if got := tel.Counter("omp.iterations").Value(); got != st.Iterations {
		t.Errorf("omp.iterations = %d, want %d", got, st.Iterations)
	}
}

// TestCollapsedForRangesCancel checks cooperative cancellation stops the
// range engine at a chunk boundary with ErrCanceled.
func TestCollapsedForRangesCancel(t *testing.T) {
	n := nest.MustNew([]string{"N"}, nest.L("i", "0", "N"), nest.L("j", "0", "N"))
	res, err := core.Collapse(n, 2, unrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, err := newEngine(res, map[string]int64{"N": 50}, 2, Schedule{Kind: Dynamic, Chunk: 10})
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.run(ctx, nil, false, rangeStep(nil, func(int, int64, []int64, int64, int64) {}))
	if !errors.Is(err, faults.ErrCanceled) {
		t.Fatalf("got %v, want canceled", err)
	}
}
