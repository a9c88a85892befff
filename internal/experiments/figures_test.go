package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/kernels"
)

func TestFig2ShowsImbalance(t *testing.T) {
	r := Fig2(1000, 5)
	if len(r.Loads) != 5 {
		t.Fatalf("loads = %d", len(r.Loads))
	}
	avg := r.Total / 5
	if r.Loads[0] < 1.5*avg {
		t.Errorf("thread 0 load %g not >> average %g", r.Loads[0], avg)
	}
	for i := 1; i < 5; i++ {
		if r.Loads[i] > r.Loads[i-1] {
			t.Errorf("loads not decreasing: %v", r.Loads)
		}
	}
	out := r.Render()
	if !strings.Contains(out, "thread  0") || !strings.Contains(out, "Fig. 2") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestFig8CurvesAreParallel(t *testing.T) {
	curves := Fig8()
	if len(curves) != 10 {
		t.Fatalf("curves = %d", len(curves))
	}
	// §IV.D: all curves are vertical translates of each other; the
	// difference between consecutive curves is exactly 1 at every i.
	for c := 1; c < len(curves); c++ {
		for p := range curves[c].Points {
			d := curves[c-1].Points[p].Y - curves[c].Points[p].Y
			if math.Abs(d-1) > 1e-9 {
				t.Fatalf("curves %d,%d differ by %g at i=%g", c-1, c, d, curves[c].Points[p].I)
			}
		}
	}
	// r(i,0,0) - 1 must be 0 at i = 0 (the first iteration has rank 1).
	for _, pt := range curves[0].Points {
		if pt.I == 0 && math.Abs(pt.Y) > 1e-9 {
			t.Errorf("r(0,0,0)-1 = %g, want 0", pt.Y)
		}
	}
	out := RenderFig8(curves)
	if !strings.Contains(out, "pc=10") {
		t.Errorf("render truncated:\n%s", out)
	}
}

// TestFig9QuickShape runs the full Fig. 9 pipeline at test sizes over
// several thread counts and checks the mechanics and the row layout:
// one row per kernel and thread count, kernel-major, each kernel's
// makespans non-increasing in the thread count.
func TestFig9QuickShape(t *testing.T) {
	threads := []int{12, 24, 48}
	rows, err := Fig9(Fig9Options{Threads: threads, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11*len(threads) {
		t.Fatalf("rows = %d", len(rows))
	}
	// Quick mode runs sub-millisecond kernels, where shared-machine
	// timing noise dwarfs scheduling effects, so this test only checks
	// the mechanics; the paper-shape assertions (positive gains, ltmp
	// anomaly) run at bench sizes in TestFig9BenchShape.
	for i, r := range rows {
		first, want := rows[i-i%len(threads)], threads[i%len(threads)]
		if r.Kernel != first.Kernel || r.Threads != want {
			t.Errorf("row %d = %s at %d threads, want %s at %d", i, r.Kernel, r.Threads, first.Kernel, want)
		}
		if r.SerialSec <= 0 || r.StaticSec <= 0 || r.CollapsedSec <= 0 || r.DynamicSec <= 0 {
			t.Errorf("%s: non-positive times %+v", r.Kernel, r)
		}
		// Parallel makespans must not exceed serial time.
		if r.StaticSec > r.SerialSec*1.01 {
			t.Errorf("%s: static %g > serial %g", r.Kernel, r.StaticSec, r.SerialSec)
		}
		if r.DynamicSec > r.SerialSec*1.01 {
			t.Errorf("%s: dynamic %g > serial %g", r.Kernel, r.DynamicSec, r.SerialSec)
		}
		if r.SpeedupCollapsed != r.SerialSec/r.CollapsedSec {
			t.Errorf("%s: speedup %g != serial/collapsed", r.Kernel, r.SpeedupCollapsed)
		}
		// Makespans must be non-increasing in P for every strategy.
		if i%len(threads) == 0 {
			continue
		}
		prev := rows[i-1]
		if r.CollapsedSec > prev.CollapsedSec*1.0001 {
			t.Errorf("collapsed makespan increased with threads: %+v -> %+v", prev, r)
		}
		if r.StaticSec > prev.StaticSec*1.0001 {
			t.Errorf("static makespan increased with threads: %+v -> %+v", prev, r)
		}
	}
	out := RenderFig9(rows, false)
	for _, col := range []string{"correlation_tiled", "gain vs dyn", "threads", "speedup"} {
		if !strings.Contains(out, col) {
			t.Errorf("render missing %q:\n%s", col, out)
		}
	}
}

// TestFig9BenchShape reproduces the paper's headline qualitative claims
// at the evaluation problem sizes:
//   - collapsing beats outer-static on every kernel;
//   - collapsing beats or ties outer-dynamic on most kernels;
//   - dynamic beats collapsing on ltmp (inner-dependence anomaly, §VII);
//
// and the §II scalability claim: for the triangular correlation kernel,
// outer-static saturates (bounded below by the heaviest outer row) while
// collapsed-static keeps scaling, so the gain grows with the thread
// count.
//
// It times each kernel's serial and collapsed runs once, in three
// alternated rounds, judges collapsed against serial by the median
// within-round ratio and simulates 4, 12 and 48 threads from that one
// measurement (a few seconds total), so it is skipped under -short.
func TestFig9BenchShape(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-size experiment skipped in -short mode")
	}
	// Each kernel's verbose line carries its round samples, so a failing
	// timed check shows what it was judged on.
	lines := map[string]string{}
	all, err := Fig9(Fig9Options{Threads: []int{4, 12, 48},
		Verbose: func(format string, args ...interface{}) {
			line := fmt.Sprintf(format, args...)
			lines[line[:strings.Index(line, ":")]] = line
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 33 {
		t.Fatalf("rows = %d", len(all))
	}
	var rows []Fig9Row // the paper's 12 threads
	at := map[int]map[string]Fig9Row{4: {}, 48: {}}
	for _, r := range all {
		if r.Threads == 12 {
			rows = append(rows, r)
		} else {
			at[r.Threads][r.Kernel] = r
		}
	}
	// Notes on the dynamic comparison: our goroutine dynamic baseline has
	// a dequeue cost measured on a two-thread team through the
	// multi-thread engine (the autotune probe; about 6ns per chunk on a
	// 2-vCPU VM) — far cheaper than libgomp's contended dispatch on the
	// paper's 12-core machine — so "gain vs dynamic" here is
	// conservative relative to the paper.
	// The robust shape claims: collapsing beats static everywhere; it
	// clearly beats dynamic on the tiled kernels (incomplete tiles); it
	// is within noise of dynamic on most others; and it clearly loses to
	// dynamic on ltmp (the paper's own anomaly).
	closeOrWin := 0
	strictWins := 0
	byName := map[string]Fig9Row{}
	for _, r := range rows {
		byName[r.Kernel] = r
		if r.Kernel == "ltmp" {
			if r.GainVsDynamic >= 0 {
				t.Errorf("ltmp: collapsing should lose to dynamic (gain %.3f)\n%s", r.GainVsDynamic, lines["ltmp"])
			}
			continue
		}
		// Allow one near-zero kernel to wobble under shared-VM timing
		// noise (gain > -0.1), but require a strict majority of clear
		// wins below.
		if r.GainVsStatic <= -0.1 {
			t.Errorf("%s: gain vs static %.3f not positive\n%s", r.Kernel, r.GainVsStatic, lines[r.Kernel])
		}
		if r.GainVsStatic > 0.1 {
			strictWins++
		}
		if r.GainVsDynamic > -0.15 {
			closeOrWin++
		}
	}
	if strictWins < 8 {
		t.Errorf("collapsing clearly beats static on only %d/10 kernels", strictWins)
	}
	for _, tiled := range []string{"correlation_tiled", "covariance_tiled"} {
		if r := byName[tiled]; r.GainVsDynamic <= 0 {
			t.Errorf("%s: collapsing should beat dynamic on incomplete tiles (gain %.3f)\n%s",
				tiled, r.GainVsDynamic, lines[tiled])
		}
	}
	if closeOrWin < 5 {
		t.Errorf("collapsing close-to-or-better than dynamic on only %d/10 kernels", closeOrWin)
	}

	p4, p48 := at[4]["correlation"], at[48]["correlation"]
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

func TestFig10QuickShape(t *testing.T) {
	rows, err := Fig10(Fig10Options{Chunks: 12, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 13 { // 11 kernels + covariance_full + symm_full
		t.Fatalf("rows = %d", len(rows))
	}
	full := 0
	for _, r := range rows {
		if r.SerialSec <= 0 || r.CollapsedSec <= 0 {
			t.Errorf("%s: non-positive times", r.Kernel)
		}
		if r.AllCollapsed {
			full++
		}
	}
	// utma, trapez, tetra, covariance_full, symm_full are full collapses.
	if full != 5 {
		t.Errorf("all-collapsed rows = %d, want 5", full)
	}
	out := RenderFig10(rows, 12)
	if !strings.Contains(out, "overhead(%)") || !strings.Contains(out, "symm_full") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestCalibrationSane(t *testing.T) {
	k := kernelByNameT(t, "correlation")
	res, err := buildResult(k)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrate(res, k.NestParams(k.TestParams))
	if err != nil {
		t.Fatal(err)
	}
	if cal.Dequeue <= 0 || cal.Dequeue > 1e-4 {
		t.Errorf("dequeue = %g s", cal.Dequeue)
	}
	if cal.Recovery <= 0 || cal.Recovery > 1e-3 {
		t.Errorf("recovery = %g s", cal.Recovery)
	}
	if cal.Increment <= 0 || cal.Increment > 1e-4 {
		t.Errorf("increment = %g s", cal.Increment)
	}
	// The whole point of §V: recovery is much costlier than increment.
	if cal.Recovery < 3*cal.Increment {
		t.Errorf("recovery %g not >> increment %g", cal.Recovery, cal.Increment)
	}
}

func kernelByNameT(t *testing.T, name string) *kernels.Kernel {
	t.Helper()
	k, err := kernels.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return k
}
