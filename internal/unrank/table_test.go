package unrank

import (
	"errors"
	"testing"

	"repro/internal/faults"
	"repro/internal/nest"
)

// tableNests are the shape classes the breakpoint tables must handle:
// fully separable shapes (every level tabulable), the tetrahedral nest
// whose middle level is NOT separable (exercising the per-level
// fallback), and a degree-5 simplex that only exists in search/table
// mode (no radical roots).
func tableNests(t *testing.T) map[string]struct {
	n      *nest.Nest
	params map[string]int64
} {
	t.Helper()
	mk := func(params []string, loops ...nest.Loop) *nest.Nest {
		n, err := nest.New(params, loops...)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	return map[string]struct {
		n      *nest.Nest
		params map[string]int64
	}{
		"rect": {
			mk([]string{"N", "M"}, nest.L("i", "0", "N"), nest.L("j", "0", "M")),
			map[string]int64{"N": 13, "M": 9},
		},
		"tri-upper": {
			mk([]string{"N"}, nest.L("i", "0", "N"), nest.L("j", "i", "N")),
			map[string]int64{"N": 21},
		},
		"tri-lower": {
			mk([]string{"N"}, nest.L("i", "0", "N"), nest.L("j", "0", "i + 1")),
			map[string]int64{"N": 21},
		},
		"shifted": {
			mk([]string{"N"}, nest.L("i", "1", "N + 1"), nest.L("j", "i - 1", "N + 2")),
			map[string]int64{"N": 14},
		},
		"tetra": {
			mk([]string{"N"}, nest.L("i", "0", "N"), nest.L("j", "0", "i + 1"), nest.L("k", "0", "j + 1")),
			map[string]int64{"N": 15},
		},
		// Level 1 is NOT separable here: the level-2 trip count (i+1)
		// depends on i, so the level-1 cumulative count mixes x and i —
		// the per-level fallback to exact binary search must carry it.
		"mixed-nonseparable": {
			mk([]string{"N"}, nest.L("i", "0", "N"), nest.L("j", "i", "N"), nest.L("k", "0", "i + 1")),
			map[string]int64{"N": 13},
		},
		"simplex4": {
			mk([]string{"N"}, nest.L("i", "0", "N"), nest.L("j", "i", "N"),
				nest.L("k", "j", "N"), nest.L("l", "k", "N")),
			map[string]int64{"N": 11},
		},
		"simplex5-deg5": {
			mk([]string{"N"}, nest.L("i", "0", "N"), nest.L("j", "i", "N"),
				nest.L("k", "j", "N"), nest.L("l", "k", "N"), nest.L("m", "l", "N")),
			map[string]int64{"N": 9},
		},
	}
}

// TestTableMatchesOracles pins bit-identical recovery across strategies:
// for every nest and every pc, ModeTable (at the default and the
// smallest table cap) and the ModeBinarySearch oracle must produce the
// same tuple (closed-form recovery is pinned by the differential stress
// harness).
func TestTableMatchesOracles(t *testing.T) {
	for name, tc := range tableNests(t) {
		t.Run(name, func(t *testing.T) {
			oracle, err := New(tc.n, Options{Mode: ModeBinarySearch})
			if err != nil {
				t.Fatal(err)
			}
			ob := oracle.MustBind(tc.params)
			variants := map[string]Options{
				"mode-table":      {Mode: ModeTable},
				"mode-table-tiny": {Mode: ModeTable, TableMaxEntries: 64},
			}
			for vname, opts := range variants {
				u, err := New(tc.n, opts)
				if err != nil {
					t.Fatalf("%s: %v", vname, err)
				}
				b := u.MustBind(tc.params)
				if b.Total() != ob.Total() {
					t.Fatalf("%s: total %d != oracle %d", vname, b.Total(), ob.Total())
				}
				got := make([]int64, tc.n.Depth())
				want := make([]int64, tc.n.Depth())
				for pc := int64(1); pc <= b.Total(); pc++ {
					if err := b.Unrank(pc, got); err != nil {
						t.Fatalf("%s: Unrank(%d): %v", vname, pc, err)
					}
					if err := ob.Unrank(pc, want); err != nil {
						t.Fatalf("oracle Unrank(%d): %v", pc, err)
					}
					for q := range got {
						if got[q] != want[q] {
							t.Fatalf("%s: Unrank(%d) = %v, oracle %v", vname, pc, got, want)
						}
					}
				}
				t.Logf("%s stats: %s", vname, b.Stats().String())
			}
		})
	}
}

// TestTableTierCarriesSeparableLevels asserts the tentpole actually
// fires: on fully separable nests ModeTable must answer every non-final
// level from the table (no binary-search concessions), and on the
// mixed nest only the non-separable middle level may fall back.
func TestTableTierCarriesSeparableLevels(t *testing.T) {
	nests := tableNests(t)
	for _, name := range []string{"rect", "tri-upper", "tri-lower", "tetra", "simplex4", "simplex5-deg5"} {
		tc := nests[name]
		u, err := New(tc.n, Options{Mode: ModeTable})
		if err != nil {
			t.Fatal(err)
		}
		b := u.MustBind(tc.params)
		idx := make([]int64, tc.n.Depth())
		for pc := int64(1); pc <= b.Total(); pc++ {
			if err := b.Unrank(pc, idx); err != nil {
				t.Fatal(err)
			}
		}
		st := b.Stats()
		if st.Searches != 0 {
			t.Errorf("%s: separable nest conceded to binary search %d times: %s", name, st.Searches, st.String())
		}
		wantLookups := b.Total() * int64(tc.n.Depth()-1)
		if st.TableLookups != wantLookups {
			t.Errorf("%s: %d table lookups, want %d", name, st.TableLookups, wantLookups)
		}
	}
	// Mixed nest: level 1's cumulative count carries (x−i)(i+1), so its
	// x-part depends on the prefix and the level must fall back —
	// exactly once per recovery — while level 0 stays on the table.
	tc := nests["mixed-nonseparable"]
	u, err := New(tc.n, Options{Mode: ModeTable})
	if err != nil {
		t.Fatal(err)
	}
	b := u.MustBind(tc.params)
	idx := make([]int64, 3)
	for pc := int64(1); pc <= b.Total(); pc++ {
		if err := b.Unrank(pc, idx); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if st.TableLookups != b.Total() || st.Searches != b.Total() {
		t.Errorf("mixed: lookups %d searches %d, want %d each (level 0 table, level 1 search): %s",
			st.TableLookups, st.Searches, b.Total(), st.String())
	}
}

// TestTableHugeTriangular is the huge-N regression on the strided path:
// at N = 2^30 the level-0 range (2^30 values) far exceeds any table
// budget, so recovery goes breakpoint segment → in-segment exact search
// → rk confirmation. Sampled ranks across the domain — including the
// catastrophic-cancellation window near Total that broke the float64
// tier — must round-trip exactly and match the binary-search oracle.
func TestTableHugeTriangular(t *testing.T) {
	n, err := nest.New([]string{"N"}, nest.L("i", "0", "N"), nest.L("j", "i", "N"))
	if err != nil {
		t.Fatal(err)
	}
	const N = int64(1) << 30
	u, err := New(n, Options{Mode: ModeTable})
	if err != nil {
		t.Fatal(err)
	}
	b := u.MustBind(map[string]int64{"N": N})
	oracle := MustNew(n, Options{Mode: ModeBinarySearch}).MustBind(map[string]int64{"N": N})
	total := b.Total()
	if want := N * (N + 1) / 2; total != want {
		t.Fatalf("Total = %d, want %d", total, want)
	}
	got := make([]int64, 2)
	want := make([]int64, 2)
	check := func(pc int64) {
		t.Helper()
		if err := b.Unrank(pc, got); err != nil {
			t.Fatalf("Unrank(%d): %v", pc, err)
		}
		if r := b.Rank(got); r != pc {
			t.Fatalf("Rank(Unrank(%d)) = %d (idx %v)", pc, r, got)
		}
		if err := oracle.Unrank(pc, want); err != nil {
			t.Fatal(err)
		}
		if got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("Unrank(%d) = %v, oracle %v", pc, got, want)
		}
	}
	for pc := int64(1); pc <= 64; pc++ {
		check(pc)
	}
	for pc := total - 64; pc <= total; pc++ {
		check(pc)
	}
	for pc := int64(1); pc < total; pc += total / 997 {
		check(pc)
	}
	st := b.Stats()
	t.Logf("stats: %s", st.String())
	if st.TableLookups == 0 || st.TableCorrections == 0 {
		t.Errorf("strided table path not exercised: %s", st.String())
	}
	if st.Searches != 0 {
		t.Errorf("table tier conceded to binary search %d times: %s", st.Searches, st.String())
	}
}

// TestDegreeGateIsModeScoped pins the relaxed degree check: radical
// solving still rejects degree > 4, while search and table modes accept
// the same nest (they invert without solving).
func TestDegreeGateIsModeScoped(t *testing.T) {
	tc := tableNests(t)["simplex5-deg5"]
	if _, err := New(tc.n, Options{}); !errors.Is(err, faults.ErrDegreeTooHigh) {
		t.Errorf("closed-form on degree-5 nest: err = %v, want ErrDegreeTooHigh", err)
	}
	for _, m := range []Mode{ModeBinarySearch, ModeTable} {
		if _, err := New(tc.n, Options{Mode: m}); err != nil {
			t.Errorf("%v on degree-5 nest: %v", m, err)
		}
	}
}

// TestParseMode pins the CLI mode parser and its typed rejection.
func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{
		"closed-form": ModeClosedForm,
		"search":      ModeBinarySearch,
		"table":       ModeTable,
	} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseMode("quantum"); !errors.Is(err, faults.ErrUnknownMode) {
		t.Errorf("ParseMode(quantum) = %v, want ErrUnknownMode", err)
	}
}
