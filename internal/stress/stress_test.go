package stress

import (
	"testing"

	"repro/internal/core"
	"repro/internal/omp"
	"repro/internal/unrank"
)

func TestNewCaseDeterministic(t *testing.T) {
	a, err := NewCase(42)
	if err != nil {
		t.Fatalf("NewCase(42): %v", err)
	}
	b, err := NewCase(42)
	if err != nil {
		t.Fatalf("NewCase(42) again: %v", err)
	}
	if a.Name != b.Name || a.Total != b.Total {
		t.Fatalf("seed 42 not deterministic: %q/%d vs %q/%d", a.Name, a.Total, b.Name, b.Total)
	}
	if a.Total < 1 {
		t.Fatalf("case %s has empty domain", a.Name)
	}
}

func TestGeneratorCoversShapes(t *testing.T) {
	shapes := map[string]bool{}
	for seed := int64(0); seed < 40; seed++ {
		c, err := NewCase(seed)
		if err != nil {
			t.Fatalf("NewCase(%d): %v", seed, err)
		}
		switch {
		case containsShape(c.Name, "rect"):
			shapes["rect"] = true
		case containsShape(c.Name, "shifted"):
			shapes["shifted"] = true
		case containsShape(c.Name, "tri"):
			shapes["tri"] = true
		}
	}
	for _, s := range []string{"rect", "tri", "shifted"} {
		if !shapes[s] {
			t.Errorf("40 seeds never produced a %s nest", s)
		}
	}
}

func containsShape(name, shape string) bool {
	return len(name) > 0 && indexOf(name, "-"+shape+"-") >= 0
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestDifferentialSweep is the harness's own smoke test: a handful of
// seeds through every schedule and recovery mode. Fault injection is
// exercised separately (the plan is process-global) in
// TestDifferentialWithFaults.
func TestDifferentialSweep(t *testing.T) {
	st, err := RunSeeds([]int64{1, 2, 3}, 4, false)
	if err != nil {
		t.Fatalf("differential sweep: %v (after %d runs)", err, st.Runs)
	}
	// Every schedule × mode cell runs twice — once through the
	// per-iteration driver, once through the range-batched engine —
	// plus one autotuned run per mode (the planner picks its own
	// schedule, so it is swept per mode, not per schedule).
	wantRuns := 3 * len(Modes()) * (len(Schedules())*2 + 1)
	if st.Runs != wantRuns {
		t.Fatalf("ran %d differential runs, want %d", st.Runs, wantRuns)
	}
}

func TestDifferentialWithFaults(t *testing.T) {
	st, err := RunSeeds([]int64{7}, 2, true)
	if err != nil {
		t.Fatalf("faulted sweep: %v", err)
	}
	// The fault plan pushes every float64 root far beyond correction
	// range, so closed-form runs must have fallen back to exact search;
	// searches also count the search-mode runs, hence >=.
	if st.Unrank.Fallbacks == 0 || st.Unrank.Searches < st.Unrank.Fallbacks {
		t.Fatalf("fault injection never forced an exact-search fallback: %s", st.Unrank.String())
	}
}

// TestForcedTiersProduceExpectedCounters checks that each recovery
// mode really carries its runs on its own rung.
func TestForcedTiersProduceExpectedCounters(t *testing.T) {
	c, err := NewCase(11)
	if err != nil {
		t.Fatalf("NewCase: %v", err)
	}
	for _, tc := range []struct {
		mode  unrank.Mode
		count func(unrank.Stats) int64
	}{
		{unrank.ModeClosedForm, func(s unrank.Stats) int64 { return s.RootEvals }},
		{unrank.ModeTable, func(s unrank.Stats) int64 { return s.TableLookups }},
		{unrank.ModeBinarySearch, func(s unrank.Stats) int64 { return s.Searches }},
	} {
		st, err := runMode(c, tc.mode)
		if err != nil {
			t.Fatalf("mode %v: %v", tc.mode, err)
		}
		if tc.count(st) == 0 {
			t.Errorf("mode %v recorded no work on its rung: %s", tc.mode, st.String())
		}
	}
}

func runMode(c *Case, mode unrank.Mode) (unrank.Stats, error) {
	res, err := core.Collapse(c.Nest, c.C, unrank.Options{Mode: mode})
	if err != nil {
		return unrank.Stats{}, err
	}
	_, cs, err := runParallel(res, c.Params, 2, omp.Schedule{Kind: omp.Static})
	return cs.Stats, err
}
