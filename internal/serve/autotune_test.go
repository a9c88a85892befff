package serve

import (
	"context"
	"testing"

	"repro/internal/autotune"
	"repro/internal/telemetry"
)

// TestExecuteAutoSchedule pins the tuned execute path: schedule "auto"
// routes through the server's autotuner, answers the exact checksum,
// reports the chosen triple with predicted-vs-actual timing, and the
// second request of the same shape serves the plan from the cache.
func TestExecuteAutoSchedule(t *testing.T) {
	reg := telemetry.New()
	_, c := startServer(t, Config{Threads: 2, Registry: reg})
	const N = 60
	tuples, checksum := triEnum(t, N)

	req := triRequest(N)
	req.Schedule = "auto"
	ex, err := c.Execute(context.Background(), req)
	if err != nil {
		t.Fatalf("auto execute: %v", err)
	}
	if ex.Iterations != int64(len(tuples)) || ex.Checksum != checksum {
		t.Fatalf("auto execute = %d iters checksum %d, want %d/%d",
			ex.Iterations, ex.Checksum, len(tuples), checksum)
	}
	if !ex.Tuned || !ex.Collapsed {
		t.Fatalf("auto run not marked tuned+collapsed: %+v", ex)
	}
	if ex.Schedule == "" || ex.Schedule == "auto" {
		t.Fatalf("response schedule %q, want the resolved concrete triple", ex.Schedule)
	}
	if ex.Threads < 1 || ex.Threads > 2 {
		t.Fatalf("tuned team size %d, want within server cap 2", ex.Threads)
	}
	if ex.PredictedMs <= 0 || ex.ActualMs <= 0 {
		t.Fatalf("missing predicted/actual timing: %+v", ex)
	}

	// Second identical request: the plan is recalled, not recomputed.
	ex2, err := c.Execute(context.Background(), req)
	if err != nil {
		t.Fatalf("second auto execute: %v", err)
	}
	if ex2.Checksum != checksum {
		t.Fatalf("second run checksum %d, want %d", ex2.Checksum, checksum)
	}
	snap := reg.Snapshot()
	if snap.Counters[autotune.PlansMetric] < 1 {
		t.Errorf("%s counter never incremented", autotune.PlansMetric)
	}
	if snap.Counters[autotune.CacheHitsMetric] < 1 {
		t.Error("second auto request did not hit the plan cache")
	}
}
