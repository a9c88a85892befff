package nest

import (
	"fmt"
	"testing"
)

// TestBoundShapeSpecialization checks the compile-time classifier: every
// Fig. 5 kernel shape (constant, i_q + c, a·i_q + c) gets a specialized
// evaluator, multi-term bounds fall back to the generic loop, and both
// paths agree on every evaluation.
func TestBoundShapeSpecialization(t *testing.T) {
	cases := []struct {
		name     string
		n        *Nest
		params   map[string]int64
		wantSpec int // specialized bounds out of 2·depth
	}{
		{"rect", MustNew([]string{"N"}, L("i", "0", "N"), L("j", "0", "N")),
			map[string]int64{"N": 7}, 4},
		{"tri", MustNew([]string{"N"}, L("i", "0", "N-1"), L("j", "i+1", "N")),
			map[string]int64{"N": 7}, 4},
		{"skew", MustNew([]string{"N"}, L("i", "0", "N"), L("j", "2*i", "2*i+3")),
			map[string]int64{"N": 7}, 4},
		{"two-term", MustNew([]string{"N"},
			L("i", "0", "N"), L("j", "0", "N"), L("k", "i+j", "2*N+2")),
			map[string]int64{"N": 5}, 5}, // i+j lower bound stays generic
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst, err := tc.n.Bind(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			spec, total := inst.SpecializedBounds()
			if total != 2*tc.n.Depth() {
				t.Fatalf("total bounds %d, want %d", total, 2*tc.n.Depth())
			}
			if spec != tc.wantSpec {
				t.Errorf("specialized %d/%d bounds, want %d", spec, total, tc.wantSpec)
			}
			// The generic evaluator must agree with the specialized one at
			// every point of the space (and fused BoundsAt with both).
			generic, err := tc.n.Bind(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			generic.forceGenericBounds()
			if s, _ := generic.SpecializedBounds(); s != 0 {
				t.Fatalf("forceGenericBounds left %d specialized bounds", s)
			}
			inst.Enumerate(func(idx []int64) bool {
				for k := 0; k < inst.Depth(); k++ {
					lo, hi := inst.BoundsAt(k, idx)
					if lo != inst.LowerAt(k, idx) || hi != inst.UpperAt(k, idx) {
						t.Fatalf("BoundsAt(%d, %v) = (%d,%d) disagrees with LowerAt/UpperAt",
							k, idx, lo, hi)
					}
					if glo, ghi := generic.BoundsAt(k, idx); glo != lo || ghi != hi {
						t.Fatalf("generic bounds (%d,%d) != specialized (%d,%d) at level %d, %v",
							glo, ghi, lo, hi, k, idx)
					}
				}
				return true
			})
			if gc, sc := generic.Count(), inst.Count(); gc != sc {
				t.Fatalf("generic count %d != specialized count %d", gc, sc)
			}
		})
	}
}

// TestNextRunCoversSpace replays every nest as (prefix, run) batches and
// checks the concatenation equals plain enumeration.
func TestNextRunCoversSpace(t *testing.T) {
	nests := []*Nest{
		MustNew([]string{"N"}, L("i", "0", "N"), L("j", "i", "N")),
		MustNew([]string{"N"}, L("i", "0", "N-1"), L("j", "0", "i+1"), L("k", "j", "i+1")),
		MustNew([]string{"N"}, L("i", "2", "N")),
	}
	for _, n := range nests {
		inst, err := n.Bind(map[string]int64{"N": 8})
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		inst.Enumerate(func(idx []int64) bool {
			want = append(want, fmt.Sprint(idx))
			return true
		})
		var got []string
		idx := make([]int64, inst.Depth())
		last := inst.Depth() - 1
		if inst.First(idx) {
			for {
				hi := inst.UpperAt(last, idx)
				for i := idx[last]; i < hi; i++ {
					idx[last] = i
					got = append(got, fmt.Sprint(idx))
				}
				if !inst.NextRun(idx) {
					break
				}
			}
		}
		if len(want) != len(got) {
			t.Fatalf("%s: runs cover %d tuples, enumeration %d", n, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: tuple %d = %s, want %s", n, i, got[i], want[i])
			}
		}
	}
}

// TestSkipMatchesEnumeration starts Skip from every tuple of each nest
// and, for every distance n to past the end of the space and several
// carry bounds, judges it by enumeration: it must land on the tuple n
// ranks later exactly when that tuple exists and lies at most maxCarries
// non-empty runs ahead, and report false otherwise.
func TestSkipMatchesEnumeration(t *testing.T) {
	cases := []struct {
		name   string
		n      *Nest
		params map[string]int64
	}{
		{"tri", MustNew([]string{"N"}, L("i", "0", "N-1"), L("j", "i+1", "N")), map[string]int64{"N": 12}},
		{"tetra", MustNew([]string{"N"}, L("i", "0", "N-1"), L("j", "0", "i+1"), L("k", "j", "i+1")),
			map[string]int64{"N": 7}},
		{"trapezoid", MustNew([]string{"N", "M"}, L("i", "0", "N"), L("j", "0", "i+M")),
			map[string]int64{"N": 8, "M": 3}},
		// Empty runs at both inner levels: i=0 has no j, j=0 has no k.
		{"empty-runs", MustNew([]string{"N"}, L("i", "0", "N"), L("j", "0", "i"), L("k", "0", "j")),
			map[string]int64{"N": 7}},
		{"depth1", MustNew([]string{"N"}, L("i", "3", "N")), map[string]int64{"N": 40}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inst, err := tc.n.Bind(tc.params)
			if err != nil {
				t.Fatal(err)
			}
			// tuples[r] is the tuple of rank r and run[r] the index of its
			// innermost run among the non-empty ones.
			var tuples [][]int64
			var run []int
			last := inst.Depth() - 1
			inst.Enumerate(func(idx []int64) bool {
				r := 0
				if k := len(tuples); k > 0 {
					r = run[k-1]
					if fmt.Sprint(tuples[k-1][:last]) != fmt.Sprint(idx[:last]) {
						r++
					}
				}
				tuples = append(tuples, append([]int64(nil), idx...))
				run = append(run, r)
				return true
			})
			if len(tuples) == 0 {
				t.Fatal("empty space")
			}
			idx := make([]int64, inst.Depth())
			for _, maxCarries := range []int{0, 1, 3, 64} {
				for from := range tuples {
					for n := 0; from+n <= len(tuples); n++ {
						copy(idx, tuples[from])
						got := inst.Skip(idx, int64(n), maxCarries)
						to := from + n
						want := to < len(tuples) && run[to]-run[from] <= maxCarries
						if got != want {
							t.Fatalf("maxCarries=%d: Skip(%v, %d) = %v, want %v", maxCarries, tuples[from], n, got, want)
						}
						if got && fmt.Sprint(idx) != fmt.Sprint(tuples[to]) {
							t.Fatalf("maxCarries=%d: Skip(%v, %d) reached %v, want %v",
								maxCarries, tuples[from], n, idx, tuples[to])
						}
					}
				}
			}
		})
	}
}

// TestParamAccessors checks the non-allocating parameter accessors
// against the copying Params map.
func TestParamAccessors(t *testing.T) {
	n := MustNew([]string{"N", "M"}, L("i", "0", "N"), L("j", "0", "M"))
	inst, err := n.Bind(map[string]int64{"N": 4, "M": 9})
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumParams() != 2 {
		t.Errorf("NumParams = %d, want 2", inst.NumParams())
	}
	for name, want := range inst.Params() {
		got, ok := inst.ParamValue(name)
		if !ok || got != want {
			t.Errorf("ParamValue(%q) = %d,%v; want %d,true", name, got, ok, want)
		}
	}
	if _, ok := inst.ParamValue("nope"); ok {
		t.Error("ParamValue of unknown name reported ok")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if v, _ := inst.ParamValue("N"); v != 4 {
			t.Fatal("wrong value")
		}
	}); allocs != 0 {
		t.Errorf("ParamValue allocates %v per call, want 0", allocs)
	}
}

// TestEnumerateScratchReuse checks the scratch-accepting enumeration
// matches Enumerate and does not allocate.
func TestEnumerateScratchReuse(t *testing.T) {
	n := MustNew([]string{"N"}, L("i", "0", "N"), L("j", "i", "N"))
	inst, err := n.Bind(map[string]int64{"N": 12})
	if err != nil {
		t.Fatal(err)
	}
	want := inst.Count()
	idx := make([]int64, inst.Depth())
	var got int64
	if allocs := testing.AllocsPerRun(10, func() {
		got = 0
		inst.EnumerateScratch(idx, func([]int64) bool { got++; return true })
	}); allocs != 0 {
		t.Errorf("EnumerateScratch allocates %v per run, want 0", allocs)
	}
	if got != want {
		t.Errorf("EnumerateScratch visited %d tuples, want %d", got, want)
	}
}
