package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// writeReport serialises an overhead report scaled by nsScale (>1 =
// slower ns metrics, proportionally lower speedups) into dir.
func writeReport(t *testing.T, dir, name string, nsScale float64) string {
	t.Helper()
	rep := &experiments.OverheadReport{}
	rep.Kernels = append(rep.Kernels, experiments.OverheadRow{
		Kernel:                "correlation",
		Params:                map[string]int64{"N": 100},
		OriginalNsPerIter:     2 * nsScale,
		RecoverEveryNsPerIter: 90 * nsScale,
		Schedules: []experiments.OverheadSched{{
			Schedule:      "static",
			PerIterNs:     15 * nsScale,
			RangesNs:      4 * nsScale,
			SpeedupRanges: 3.75 / nsScale,
		}},
	})
	path := filepath.Join(dir, name)
	if err := experiments.WriteDoc(path, rep.Doc()); err != nil {
		t.Fatal(err)
	}
	return path
}

// capture redirects stdout around f.
func capture(t *testing.T, f func() (int, error)) (string, int, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	code, ferr := f()
	w.Close()
	os.Stdout = old
	return <-done, code, ferr
}

// TestIdenticalRunsExitZero is the gate's acceptance: two identical
// documents compare clean.
func TestIdenticalRunsExitZero(t *testing.T) {
	dir := t.TempDir()
	a := writeReport(t, dir, "a.json", 1)
	b := writeReport(t, dir, "b.json", 1)
	out, code, err := capture(t, func() (int, error) {
		return run(options{oldPath: a, newPath: b, threshold: 20})
	})
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Errorf("exit code = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "benchdiff: OK") {
		t.Errorf("missing OK verdict:\n%s", out)
	}
}

// TestSyntheticRegressionExitNonZero: a 25% injected slowdown must
// fail the 20% gate.
func TestSyntheticRegressionExitNonZero(t *testing.T) {
	dir := t.TempDir()
	a := writeReport(t, dir, "a.json", 1)
	b := writeReport(t, dir, "b.json", 1.25)
	out, code, err := capture(t, func() (int, error) {
		return run(options{oldPath: a, newPath: b, threshold: 20})
	})
	if err != nil {
		t.Fatal(err)
	}
	if code == 0 {
		t.Errorf("25%% regression exited 0:\n%s", out)
	}
	if !strings.Contains(out, "FAIL") || !strings.Contains(out, "REGRESSION") {
		t.Errorf("missing regression report:\n%s", out)
	}
}

// TestMetricsFilter: a speedup-only filter still catches the ratio
// drop at a tight threshold, and compares nothing else.
func TestMetricsFilter(t *testing.T) {
	dir := t.TempDir()
	a := writeReport(t, dir, "a.json", 1)
	b := writeReport(t, dir, "b.json", 1.3)
	out, code, err := capture(t, func() (int, error) {
		return run(options{oldPath: a, newPath: b, threshold: 10, metrics: "speedup"})
	})
	if err != nil || code != 1 {
		t.Errorf("filtered run: code=%d err=%v, want 1/nil", code, err)
	}
	if !strings.Contains(out, "1 comparisons, 1 regressions") {
		t.Errorf("filter did not select exactly the speedup row:\n%s", out)
	}
}

func TestUsageErrors(t *testing.T) {
	if _, err := run(options{}); err == nil {
		t.Error("missing paths accepted")
	}
	if _, err := run(options{oldPath: "/nonexistent.json", newPath: "/also.json"}); err == nil {
		t.Error("missing file accepted")
	}
}
