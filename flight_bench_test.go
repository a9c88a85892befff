package nonrect

// Flight-recorder cost on the BenchmarkEngines hot path: the
// instrumented executor records one chunk span per chunk, and with a
// flight recorder attached each span is additionally copied into the
// preallocated ring. The benchmark exposes all three operating points
// (uninstrumented, telemetry, telemetry+flight); the test pins the
// acceptance bound — attaching the flight recorder costs < 5% on top
// of plain telemetry.

import (
	"testing"
	"time"

	"repro/internal/omp"
	"repro/internal/telemetry"
)

func flightBenchSetup(tb testing.TB) (*Result, map[string]int64, omp.Schedule) {
	tb.Helper()
	n := MustNewNest([]string{"N"}, L("i", "0", "N-1"), L("j", "i+1", "N"))
	res, err := Collapse(n, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return res, map[string]int64{"N": 700}, omp.Schedule{Kind: omp.StaticChunk, Chunk: 4096}
}

var flightSink int64

func flightTraversal(tb testing.TB, res *Result, params map[string]int64,
	sched omp.Schedule, tel *telemetry.Registry) {
	tb.Helper()
	if _, err := omp.CollapsedForChunkTelemetryCtx(nil, res, params, 1, sched, tel,
		func(tid int, idx []int64) { flightSink += idx[0] }); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkEnginesFlight measures the telemetry engine's traversal at
// the three instrumentation levels.
func BenchmarkEnginesFlight(b *testing.B) {
	res, params, sched := flightBenchSetup(b)
	b.Run("telemetry-off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			flightTraversal(b, res, params, sched, nil)
		}
	})
	b.Run("telemetry", func(b *testing.B) {
		tel := telemetry.New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			flightTraversal(b, res, params, sched, tel)
		}
	})
	b.Run("telemetry+flight", func(b *testing.B) {
		tel := telemetry.New()
		tel.EnableFlight(4096, true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			flightTraversal(b, res, params, sched, tel)
		}
	})
}

// TestFlightRecorderOverheadOnEngines pins the flight recorder's cost
// on the hot path: a traversal with the ring attached (teeing every
// chunk span) must stay within 5% of the identical traversal with
// plain telemetry. Both sides are measured best-of to shed scheduler
// noise, and the comparison retries to tolerate one-off load spikes.
func TestFlightRecorderOverheadOnEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	res, params, sched := flightBenchSetup(t)
	bestOf := func(reps int, tel *telemetry.Registry) time.Duration {
		best := time.Duration(-1)
		for r := 0; r < reps; r++ {
			start := time.Now()
			flightTraversal(t, res, params, sched, tel)
			if d := time.Since(start); best < 0 || d < best {
				best = d
			}
		}
		return best
	}
	// Warm both configurations once.
	plainTel := telemetry.New()
	flightTel := telemetry.New()
	flightTel.EnableFlight(4096, true)
	bestOf(1, plainTel)
	bestOf(1, flightTel)

	const attempts = 3
	var plain, flight time.Duration
	for a := 0; a < attempts; a++ {
		plain = bestOf(7, plainTel)
		flight = bestOf(7, flightTel)
		if float64(flight) <= float64(plain)*1.05 {
			return
		}
	}
	t.Errorf("flight recorder overhead: plain %v, flight %v (%.1f%% > 5%%)",
		plain, flight, (float64(flight)/float64(plain)-1)*100)
}
