package unrank

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/nest"
)

// triNest is the upper-triangular nest i=0..N-1, j=i..N-1 whose level-0
// recovery root is N+1/2 - sqrt((N+1/2)^2 - 2pc + ...): near pc = Total
// the discriminant cancels catastrophically, so for huge N the float64
// floor error exceeds any reasonable correction budget and exact search
// must take over.
func triNest(t *testing.T) *nest.Nest {
	t.Helper()
	n, err := nest.New([]string{"N"}, nest.L("i", "0", "N"), nest.L("j", "i", "N"))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestLadderRecoversHugeTriangular is the headline regression for the
// float64 → exact search ladder: at N = 2^30 the float64 path provably
// mis-recovers ranks near the end of the domain (floor error beyond
// MaxCorrection), and exact search must recover every such tuple. Below
// that size the float64 path plus correction carries every rank alone.
// Table-driven over parameter sizes; also run under -race by the
// concurrency gate (RACE_PKGS includes this package).
func TestLadderRecoversHugeTriangular(t *testing.T) {
	cases := []struct {
		name string
		n    int64
		// window is how many ranks below Total to sweep.
		window int64
		// wantFloat64Fail requires the float64 path to have failed at
		// least once (proving exact search, not the fast path, carried
		// the recovery).
		wantFloat64Fail bool
	}{
		{"N=2^10 float64 suffices", 1 << 10, 200, false},
		{"N=2^28 correction-heavy float64", 1 << 28, 200, false},
		{"N=2^30 ladder required", 1 << 30, 200, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u, err := New(triNest(t), Options{})
			if err != nil {
				t.Fatal(err)
			}
			b, err := u.Bind(map[string]int64{"N": tc.n})
			if err != nil {
				t.Fatal(err)
			}
			total := b.Total()
			if want := tc.n * (tc.n + 1) / 2; total != want {
				t.Fatalf("Total = %d, want %d", total, want)
			}
			idx := make([]int64, 2)
			for pc := total - tc.window; pc <= total; pc++ {
				if err := b.Unrank(pc, idx); err != nil {
					t.Fatalf("Unrank(%d): %v", pc, err)
				}
				// Exact round trip and domain membership.
				if got := b.Rank(idx); got != pc {
					t.Fatalf("Rank(Unrank(%d)) = %d (idx %v)", pc, got, idx)
				}
				if idx[0] < 0 || idx[0] >= tc.n || idx[1] < idx[0] || idx[1] >= tc.n {
					t.Fatalf("Unrank(%d) = %v outside domain", pc, idx)
				}
			}
			st := b.Stats()
			t.Logf("stats: %s", st.String())
			if tc.wantFloat64Fail {
				if st.Fallbacks == 0 || st.Searches != st.Fallbacks {
					t.Errorf("want every float64 failure searched exactly once, at least one: %s", st.String())
				}
			} else if st.Fallbacks != 0 || st.Searches != 0 {
				t.Errorf("float64 path failed %d times (%d searches) on a small domain", st.Fallbacks, st.Searches)
			}
		})
	}
}

// TestLadderRescuesInjectedFaults forces the float64 path wrong by
// fault injection (every root perturbed far beyond the correction
// budget) and requires exact search to recover every rank of a small
// domain exactly, with the counters proving which rung fired.
func TestLadderRescuesInjectedFaults(t *testing.T) {
	u, err := New(triNest(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	restore := faults.Activate(&faults.Plan{
		PerturbRoot: func(level int, x complex128) complex128 {
			return x + complex(100.5, 0)
		},
	})
	defer restore()
	b, err := u.Bind(map[string]int64{"N": 40})
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int64, 2)
	for pc := int64(1); pc <= b.Total(); pc++ {
		if err := b.Unrank(pc, idx); err != nil {
			t.Fatalf("Unrank(%d): %v", pc, err)
		}
		if got := b.Rank(idx); got != pc {
			t.Fatalf("Rank(Unrank(%d)) = %d (idx %v)", pc, got, idx)
		}
	}
	// Clamping into the level's range lets the correction repair a few
	// ranks near the top row; every rank it cannot repair must be
	// searched.
	st := b.Stats()
	if st.Fallbacks == 0 || st.Searches != st.Fallbacks {
		t.Errorf("exact search did not rescue every injected fault: %s", st.String())
	}
}

// TestModeForcesRung pins each recovery mode to its own fast rung: on
// a domain small enough for the fast path to never fail, every
// non-final level is recovered by that rung alone.
func TestModeForcesRung(t *testing.T) {
	for _, tc := range []struct {
		mode Mode
		chk  func(Stats) bool
	}{
		{ModeClosedForm, func(s Stats) bool { return s.RootEvals > 0 && s.TableLookups == 0 && s.Searches == 0 }},
		{ModeTable, func(s Stats) bool { return s.RootEvals == 0 && s.TableLookups > 0 && s.Searches == 0 }},
		{ModeBinarySearch, func(s Stats) bool { return s.RootEvals == 0 && s.TableLookups == 0 && s.Searches > 0 }},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			u, err := New(triNest(t), Options{Mode: tc.mode})
			if err != nil {
				t.Fatal(err)
			}
			b, err := u.Bind(map[string]int64{"N": 25})
			if err != nil {
				t.Fatal(err)
			}
			idx := make([]int64, 2)
			for pc := int64(1); pc <= b.Total(); pc++ {
				if err := b.Unrank(pc, idx); err != nil {
					t.Fatalf("Unrank(%d): %v", pc, err)
				}
				if got := b.Rank(idx); got != pc {
					t.Fatalf("Rank(Unrank(%d)) = %d", pc, got)
				}
			}
			if st := b.Stats(); !tc.chk(st) {
				t.Errorf("mode %v counters off: %s", tc.mode, st.String())
			}
		})
	}
}

// TestNearBoundaryRootSelectionStable pins the satellite fix for the
// magic tolerances: the scale-aware constants must accept a root whose
// float64 evaluation sits a hair below an integer (within FloorNudge)
// or carries rounding-level imaginary dust scaled by the root's
// magnitude — previously hard-coded 1e-6/1e-9 thresholds evaluated
// against these exact situations.
func TestNearBoundaryRootSelectionStable(t *testing.T) {
	if !imagNegligible(complex(1e9, 1e-4)) {
		t.Error("rounding-scale imaginary part at magnitude 1e9 must be negligible")
	}
	if imagNegligible(complex(1.0, 1e-4)) {
		t.Error("1e-4 imaginary part at magnitude 1 must not be negligible")
	}
	if got := floorReal(complex(4.9999999996, 0)); got != 5 {
		t.Errorf("floorReal(5-4e-10) = %d, want 5 (within FloorNudge)", got)
	}
	if got := floorReal(complex(4.9999, 0)); got != 4 {
		t.Errorf("floorReal(4.9999) = %d, want 4", got)
	}
	// End-to-end: selection over a nest whose roots land exactly on
	// integers at every sample must keep closed-form recovery (no
	// fallback to binary search on any pc).
	u, err := New(triNest(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := u.Bind(map[string]int64{"N": 30})
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int64, 2)
	for pc := int64(1); pc <= b.Total(); pc++ {
		if err := b.Unrank(pc, idx); err != nil {
			t.Fatal(err)
		}
	}
	if st := b.Stats(); st.Searches > 0 || st.Fallbacks > 0 {
		t.Errorf("near-boundary roots flipped recovery off the fast path: %s", st.String())
	}
}
