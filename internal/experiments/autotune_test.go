package experiments

import (
	"strings"
	"testing"
)

// TestAutotuneQuick smoke-runs the suite on one uniform and one
// imbalanced kernel at test sizes and pins the report invariants: every
// row carries a concrete decision with measured auto/best/worst times,
// the ratio fields are consistent with the panel, and the end-of-row
// re-plan of the settled shape came from the plan cache.
func TestAutotuneQuick(t *testing.T) {
	rep, err := Autotune(AutotuneOptions{
		Quick:   true,
		Threads: 2,
		Kernels: []string{"syrk", "ltmp"},
	})
	if err != nil {
		t.Fatalf("Autotune: %v", err)
	}
	if len(rep.Kernels) != 2 {
		t.Fatalf("report has %d kernels, want 2", len(rep.Kernels))
	}
	for _, row := range rep.Kernels {
		if row.Decision == "" || row.Iterations <= 0 {
			t.Errorf("%s: empty decision or iterations (%+v)", row.Kernel, row)
		}
		if row.AutoSec <= 0 || row.PredictedSec <= 0 {
			t.Errorf("%s: missing tuned timing: auto %v predicted %v",
				row.Kernel, row.AutoSec, row.PredictedSec)
		}
		if row.BestSpec == "" || row.WorstSpec == "" || row.BestSec > row.WorstSec {
			t.Errorf("%s: inconsistent panel extremes %+v", row.Kernel, row)
		}
		if len(row.Choices) != 5 {
			t.Errorf("%s: %d panel choices, want 5", row.Kernel, len(row.Choices))
		}
		wantVsBest := row.AutoSec / row.BestSec
		if diff := row.AutoVsBest - wantVsBest; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: auto_vs_best %v, want %v", row.Kernel, row.AutoVsBest, wantVsBest)
		}
		if !row.CacheHit {
			t.Errorf("%s: settled shape re-plan missed the cache", row.Kernel)
		}
	}
	if rep.Plans < 2 {
		t.Errorf("autotune.plans = %d, want >= 2 (one per kernel)", rep.Plans)
	}
	if rep.CacheHits < 2 {
		t.Errorf("autotune.cache_hits = %d, want >= 2", rep.CacheHits)
	}

	out := RenderAutotune(rep)
	for _, frag := range []string{"auto decision", "syrk", "ltmp", "cache hits"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q:\n%s", frag, out)
		}
	}
}

// TestParseSchedSpec pins the panel's -sched specs: the omp.ParseSchedule
// grammar minus "auto" (the tuned row itself). A bad spec fails before
// any kernel runs; the accepted rows are TestAutotuneQuick's default panel.
func TestParseSchedSpec(t *testing.T) {
	for _, spec := range []string{"auto", "static,0", "bogus", "dynamic,x"} {
		if _, err := Autotune(AutotuneOptions{Quick: true, Kernels: []string{"syrk"}, Schedules: []string{"static", spec}}); err == nil {
			t.Errorf("panel schedule %q accepted", spec)
		}
	}
}
