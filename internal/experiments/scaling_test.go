package experiments

import (
	"strings"
	"testing"
)

// scalingRows runs the Fig. 9 pipeline for the correlation kernel alone
// over the given thread counts: one measurement, one row per count.
func scalingRows(t *testing.T, threads []int, quick bool) []Fig9Row {
	t.Helper()
	opts := Fig9Options{Threads: threads, Quick: quick}
	opts.fill()
	rows, err := fig9Kernel(kernelByNameT(t, "correlation"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(threads) {
		t.Fatalf("rows = %d", len(rows))
	}
	return rows
}

func TestScalingQuickStructure(t *testing.T) {
	rows := scalingRows(t, []int{2, 8, 32}, true)
	// Makespans must be non-increasing in P for every strategy.
	for i := 1; i < len(rows); i++ {
		if rows[i].CollapsedSec > rows[i-1].CollapsedSec*1.0001 {
			t.Errorf("collapsed makespan increased with threads: %+v -> %+v", rows[i-1], rows[i])
		}
		if rows[i].StaticSec > rows[i-1].StaticSec*1.0001 {
			t.Errorf("static makespan increased with threads: %+v -> %+v", rows[i-1], rows[i])
		}
	}
	out := RenderFig9(rows, false)
	if !strings.Contains(out, "threads") || !strings.Contains(out, "speedup") {
		t.Errorf("render missing columns:\n%s", out)
	}
}

// TestScalingBenchSaturation asserts the §II scalability claim at bench
// size: for the triangular correlation kernel, outer-static saturates
// (bounded below by the heaviest outer row) while collapsed-static keeps
// scaling, so the gain grows with the thread count.
func TestScalingBenchSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-size experiment skipped in -short mode")
	}
	rows := scalingRows(t, []int{4, 48}, false)
	p4, p48 := rows[0], rows[1]
	if p48.GainVsStatic <= p4.GainVsStatic {
		t.Errorf("gain did not grow with threads: P=4 %.3f vs P=48 %.3f",
			p4.GainVsStatic, p48.GainVsStatic)
	}
	// At P=48 static is limited by the heaviest row: speedup(static)
	// stays far below 48 while collapsed exceeds it substantially.
	if p48.SpeedupCollapsed < 24 {
		t.Errorf("collapsed speedup at P=48 only %.1fx", p48.SpeedupCollapsed)
	}
}
