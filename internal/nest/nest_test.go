package nest

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/poly"
)

// Correlation nest of the paper's Fig. 1 (outer two loops).
func correlationNest() *Nest {
	return MustNew([]string{"N"}, L("i", "0", "N-1"), L("j", "i+1", "N"))
}

// Tetrahedral nest of the paper's Fig. 6.
func tetraNest() *Nest {
	return MustNew([]string{"N"}, L("i", "0", "N-1"), L("j", "0", "i+1"), L("k", "j", "i+1"))
}

func TestValidateAcceptsModels(t *testing.T) {
	good := []*Nest{
		correlationNest(),
		tetraNest(),
		MustNew(nil, L("i", "0", "10")),
		MustNew([]string{"N", "M"}, L("i", "0", "N"), L("j", "i", "i+M")), // rhomboid
	}
	for _, n := range good {
		if err := n.Validate(); err != nil {
			t.Errorf("Validate(%v): %v", n.Indices(), err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		n    *Nest
	}{
		{"empty", &Nest{}},
		{"dup index", &Nest{Loops: []Loop{L("i", "0", "5"), L("i", "0", "5")}}},
		{"dup param/index", &Nest{Params: []string{"i"}, Loops: []Loop{L("i", "0", "5")}}},
		{"unknown var", &Nest{Loops: []Loop{L("i", "0", "N")}}},
		{"inner var in outer bound", &Nest{Loops: []Loop{L("i", "0", "j"), L("j", "0", "5")}}},
		{"non-affine", &Nest{Params: []string{"N"}, Loops: []Loop{L("i", "0", "N"), L("j", "0", "i^2")}}},
		{"bilinear", &Nest{Params: []string{"N"}, Loops: []Loop{L("i", "0", "N"), L("j", "0", "i*N")}}},
		{"fractional", &Nest{Params: []string{"N"}, Loops: []Loop{L("i", "0", "N/2")}}},
		{"nil bound", &Nest{Loops: []Loop{{Index: "i", Lower: poly.Int(0)}}}},
		{"empty index", &Nest{Loops: []Loop{{Index: "", Lower: poly.Int(0), Upper: poly.Int(4)}}}},
	}
	for _, c := range cases {
		if err := c.n.Validate(); err == nil {
			t.Errorf("%s: Validate unexpectedly succeeded", c.name)
		}
	}
}

func TestEnumerateCorrelation(t *testing.T) {
	inst := correlationNest().MustBind(map[string]int64{"N": 5})
	var got [][2]int64
	inst.Enumerate(func(idx []int64) bool {
		got = append(got, [2]int64{idx[0], idx[1]})
		return true
	})
	want := [][2]int64{
		{0, 1}, {0, 2}, {0, 3}, {0, 4},
		{1, 2}, {1, 3}, {1, 4},
		{2, 3}, {2, 4},
		{3, 4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Enumerate = %v, want %v", got, want)
	}
	if c := inst.Count(); c != 10 {
		t.Errorf("Count = %d, want 10", c)
	}
}

func TestCountTetra(t *testing.T) {
	// Paper: total iterations of Fig. 6 nest is (N^3 - N)/6.
	for _, N := range []int64{2, 3, 5, 8, 13} {
		inst := tetraNest().MustBind(map[string]int64{"N": N})
		want := (N*N*N - N) / 6
		if c := inst.Count(); c != want {
			t.Errorf("N=%d: Count = %d, want %d", N, c, want)
		}
	}
}

func TestFirstAndIncrementAgainstEnumerate(t *testing.T) {
	nests := []*Nest{correlationNest(), tetraNest(),
		MustNew([]string{"N", "M"}, L("i", "0", "N"), L("j", "i", "i+M"))}
	params := []map[string]int64{{"N": 6}, {"N": 6}, {"N": 4, "M": 3}}
	for ni, n := range nests {
		inst := n.MustBind(params[ni])
		var all [][]int64
		inst.Enumerate(func(idx []int64) bool {
			all = append(all, append([]int64(nil), idx...))
			return true
		})
		idx := make([]int64, n.Depth())
		if !inst.First(idx) {
			t.Fatalf("nest %d: First reported empty", ni)
		}
		for i, want := range all {
			if !reflect.DeepEqual(idx, want) {
				t.Fatalf("nest %d step %d: idx = %v, want %v", ni, i, idx, want)
			}
			more := inst.Increment(idx)
			if more != (i < len(all)-1) {
				t.Fatalf("nest %d step %d: Increment = %v", ni, i, more)
			}
		}
	}
}

func TestEmptyAndZeroTripSpaces(t *testing.T) {
	inst := correlationNest().MustBind(map[string]int64{"N": 1})
	idx := make([]int64, 2)
	if inst.First(idx) {
		t.Error("First on empty space returned true")
	}
	if c := inst.Count(); c != 0 {
		t.Errorf("Count = %d on empty space", c)
	}
	// Zero-trip inner prefixes must be skipped: j runs i..min(i+2, 4) with
	// an empty range for some i when bounds cross.
	n := MustNew(nil, L("i", "0", "5"), L("j", "i", "3"))
	// For i >= 3 the j loop is empty (trip <= 0 is irregular; use CheckRegular)
	bi := n.MustBind(nil)
	if err := bi.CheckRegular(); err == nil {
		t.Error("CheckRegular missed negative trip count")
	}
	// A regular zero-trip case: j in [i, 3) for i in [0,4); at i=3 the j
	// range [3,3) is empty but not negative, which is permitted.
	n2 := MustNew(nil, L("i", "0", "4"), L("j", "i", "3"))
	bi2 := n2.MustBind(nil)
	if err := bi2.CheckRegular(); err != nil {
		t.Errorf("CheckRegular flagged a zero-trip (non-negative) loop: %v", err)
	}
	if c := bi2.Count(); c != 6 {
		t.Errorf("Count = %d, want 6", c)
	}
}

func TestCheckRegular(t *testing.T) {
	ok := MustNew(nil, L("i", "0", "4"), L("j", "i", "4")) // triangular incl. zero-trip? j in [i,4): i=3 -> 1 iter; regular
	if err := ok.MustBind(nil).CheckRegular(); err != nil {
		t.Errorf("CheckRegular(ok): %v", err)
	}
	bad := MustNew(nil, L("i", "0", "6"), L("j", "i", "4"))
	if err := bad.MustBind(nil).CheckRegular(); err == nil {
		t.Error("CheckRegular(bad) passed")
	}
}

func TestContains(t *testing.T) {
	inst := correlationNest().MustBind(map[string]int64{"N": 5})
	if !inst.Contains([]int64{2, 3}) {
		t.Error("Contains(2,3) = false")
	}
	if inst.Contains([]int64{2, 2}) {
		t.Error("Contains(2,2) = true (j must be > i)")
	}
	if inst.Contains([]int64{4, 5}) {
		t.Error("Contains(4,5) = true (out of range)")
	}
	if inst.Contains([]int64{1}) {
		t.Error("Contains wrong arity = true")
	}
}

func TestLexMinTail(t *testing.T) {
	n := tetraNest()
	// Tail after level 0 (i): j's lexmin is 0, k's lexmin is j's lexmin = 0.
	tail0 := n.LexMinTail(0)
	if !tail0["j"].Equal(poly.Int(0)) {
		t.Errorf("lexmin j = %s", tail0["j"])
	}
	if !tail0["k"].Equal(poly.Int(0)) {
		t.Errorf("lexmin k = %s", tail0["k"])
	}
	// Correlation: tail after level 0 is j = i+1.
	c := correlationNest()
	tail := c.LexMinTail(0)
	if !tail["j"].Equal(poly.MustParse("i+1")) {
		t.Errorf("lexmin j = %s", tail["j"])
	}
	// Chain: for nest i; j=i..; k=j.. the lexmin of k after level 0 is i.
	ch := MustNew([]string{"N"}, L("i", "0", "N"), L("j", "i", "N"), L("k", "j", "N"))
	tc := ch.LexMinTail(0)
	if !tc["k"].Equal(poly.Var("i")) {
		t.Errorf("chained lexmin k = %s", tc["k"])
	}
	if got := ch.LexMinTail(2); len(got) != 0 {
		t.Errorf("LexMinTail(last) = %v", got)
	}
}

func TestBindErrors(t *testing.T) {
	n := correlationNest()
	if _, err := n.Bind(nil); err == nil {
		t.Error("Bind without params succeeded")
	}
	if _, err := n.Bind(map[string]int64{"M": 5}); err == nil {
		t.Error("Bind with wrong param succeeded")
	}
	if _, err := n.Bind(map[string]int64{"N": 5, "M": 1}); err == nil {
		t.Error("Bind with extra param succeeded")
	}
}

// TestBindOverflow checks that folding parameter values into a bound
// past int64 fails with faults.ErrOverflow instead of binding a wrapped
// constant, for an overflowing product, sum and coefficient.
func TestBindOverflow(t *testing.T) {
	for _, tc := range []struct {
		lower, upper string
		n            int64
	}{
		{"4611686018427387904*N", "4611686018427387904*N+5", 4}, // 2^64
		{"0", "9223372036854775807+N", 1},
		{"0", "18446744073709551616*N", 0}, // coefficient beyond int64
	} {
		n := MustNew([]string{"N"}, L("i", "0", "10"), L("j", tc.lower, tc.upper))
		if _, err := n.Bind(map[string]int64{"N": tc.n}); !errors.Is(err, faults.ErrOverflow) {
			t.Errorf("j=%s:%s at N=%d: err = %v, want ErrOverflow", tc.lower, tc.upper, tc.n, err)
		}
	}
	// The same bounds bind where they fit.
	n := MustNew([]string{"N"}, L("i", "0", "10"), L("j", "4611686018427387904*N", "4611686018427387904*N+5"))
	inst, err := n.Bind(map[string]int64{"N": 1})
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := inst.BoundsAt(1, []int64{0, 0}); lo != 1<<62 || hi != 1<<62+5 {
		t.Errorf("bounds at N=1 = [%d, %d), want [2^62, 2^62+5)", lo, hi)
	}
}

func TestStringRendering(t *testing.T) {
	s := correlationNest().String()
	want := "params N\nfor (i = 0 ; i < N - 1 ; i++)\n  for (j = i + 1 ; j < N ; j++)\n"
	if s != want {
		t.Errorf("String = %q, want %q", s, want)
	}
}
