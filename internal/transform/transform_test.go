package transform

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/nest"
	"repro/internal/nest/nesttest"
)

// checkBijection verifies that the transformed nest has the same number
// of points as the original and that the Map sends its points exactly
// onto the original points.
func checkBijection(t *testing.T, tr *Transformed, params map[string]int64) {
	t.Helper()
	srcInst := tr.Source().MustBind(params)
	dstInst := tr.Nest.MustBind(params)
	if err := dstInst.CheckRegular(); err != nil {
		t.Fatalf("transformed nest irregular: %v", err)
	}
	var want []string
	srcInst.Enumerate(func(idx []int64) bool {
		want = append(want, tupleKey(idx))
		return true
	})
	m, err := tr.BindMap(params)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	buf := make([]int64, tr.Nest.Depth())
	dstInst.Enumerate(func(idx []int64) bool {
		m(idx, buf)
		got = append(got, tupleKey(buf))
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("point counts differ: %d vs %d", len(got), len(want))
	}
	sort.Strings(want)
	sort.Strings(got)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("point sets differ at %d: %s vs %s", i, want[i], got[i])
		}
	}
}

func tupleKey(idx []int64) string {
	s := ""
	for _, v := range idx {
		s += "," + itoa(v)
	}
	return s
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

func correlationNest() *nest.Nest {
	return nest.MustNew([]string{"N"}, nest.L("i", "0", "N-1"), nest.L("j", "i+1", "N"))
}

func TestNormalizeCorrelation(t *testing.T) {
	tr, err := Normalize(correlationNest())
	if err != nil {
		t.Fatal(err)
	}
	// j' = j - (i+1): bounds become 0 .. N-1-i.
	if got := tr.Nest.Loops[1].Lower.String(); got != "0" {
		t.Errorf("normalized lower = %s", got)
	}
	if got := tr.Nest.Loops[1].Upper.String(); got != "N - i - 1" {
		t.Errorf("normalized upper = %s", got)
	}
	checkBijection(t, tr, map[string]int64{"N": 9})
}

func TestNormalizeRandomNests(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		n, params := nesttest.RandRegularNest(r)
		tr, err := Normalize(n)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for k, l := range tr.Nest.Loops {
			if !l.Lower.IsZero() {
				t.Fatalf("trial %d: level %d lower = %s", trial, k, l.Lower)
			}
		}
		checkBijection(t, tr, params)
	}
	n, params := nesttest.NonZeroLowerNest()
	tr, err := Normalize(n)
	if err != nil {
		t.Fatal(err)
	}
	checkBijection(t, tr, params)
}

func TestSkewProducesRhomboid(t *testing.T) {
	// Skewing the rectangle {i: 0..N, j: 0..M} by j' = j + i gives the
	// rhomboid {i: 0..N, j': i..i+M}.
	rect := nest.MustNew([]string{"N", "M"}, nest.L("i", "0", "N"), nest.L("j", "0", "M"))
	tr, err := Skew(rect, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Nest.Loops[1].Lower.String(); got != "i" {
		t.Errorf("skewed lower = %s", got)
	}
	if got := tr.Nest.Loops[1].Upper.String(); got != "M + i" {
		t.Errorf("skewed upper = %s", got)
	}
	checkBijection(t, tr, map[string]int64{"N": 6, "M": 4})
}

func TestSkewDeeperBoundsSubstituted(t *testing.T) {
	// 3-deep: k's bounds reference j; after skewing j they must
	// reference j - i.
	n := nest.MustNew([]string{"N"},
		nest.L("i", "0", "N"),
		nest.L("j", "0", "N"),
		nest.L("k", "j", "j+3"),
	)
	tr, err := Skew(n, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Nest.Loops[2].Lower.String(); got != "-i + j" && got != "j - i" {
		t.Errorf("deep lower = %s", got)
	}
	checkBijection(t, tr, map[string]int64{"N": 5})
}

func TestSkewNegativeFactorAndErrors(t *testing.T) {
	rhomb := nest.MustNew([]string{"N", "M"}, nest.L("i", "0", "N"), nest.L("j", "i", "i+M"))
	// Unskew the rhomboid back to the rectangle.
	tr, err := Skew(rhomb, 1, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Nest.Loops[1].Lower.String(); got != "0" {
		t.Errorf("unskewed lower = %s", got)
	}
	checkBijection(t, tr, map[string]int64{"N": 5, "M": 3})

	if _, err := Skew(rhomb, 0, 0, 1); err == nil {
		t.Error("skew wrt itself accepted")
	}
	if _, err := Skew(rhomb, 0, 1, 1); err == nil {
		t.Error("skew wrt inner loop accepted")
	}
	if _, err := Skew(rhomb, 5, 0, 1); err == nil {
		t.Error("skew of missing level accepted")
	}
}

func TestReverse(t *testing.T) {
	tri := correlationNest()
	tr, err := Reverse(tri, 0)
	if err != nil {
		t.Fatal(err)
	}
	// i' in [1-(N-1), 1-0) = [2-N, 1); inner bounds substitute i = -i'.
	checkBijection(t, tr, map[string]int64{"N": 8})
	// Reversing the inner loop too.
	tr2, err := Reverse(tr.Nest, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkBijectionVia(t, tr2, tr, map[string]int64{"N": 8}, tri)
	if _, err := Reverse(tri, 9); err == nil {
		t.Error("reverse of missing level accepted")
	}
}

// checkBijectionVia composes two transforms and checks against the
// original source nest.
func checkBijectionVia(t *testing.T, second, first *Transformed, params map[string]int64, orig *nest.Nest) {
	t.Helper()
	m2, err := second.BindMap(params)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := first.BindMap(params)
	if err != nil {
		t.Fatal(err)
	}
	m := Compose(m2, m1)
	var want, got []string
	orig.MustBind(params).Enumerate(func(idx []int64) bool {
		want = append(want, tupleKey(idx))
		return true
	})
	buf := make([]int64, orig.Depth())
	second.Nest.MustBind(params).Enumerate(func(idx []int64) bool {
		m(idx, buf)
		got = append(got, tupleKey(buf))
		return true
	})
	sort.Strings(want)
	sort.Strings(got)
	if len(want) != len(got) {
		t.Fatalf("counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("sets differ at %d", i)
		}
	}
}

func TestIdentityAndCompose(t *testing.T) {
	id := Identity(3)
	src := []int64{4, 5, 6}
	dst := make([]int64, 3)
	id(src, dst)
	if dst[0] != 4 || dst[2] != 6 {
		t.Error("identity broken")
	}
	double := Compose(id, id)
	double(src, dst)
	if dst[1] != 5 {
		t.Error("compose broken")
	}
}

// TestRebase checks the canonical form on a nest with two constant
// lower bounds and one that is not: rows, offsets, and a point-by-point
// bijection (original = rebased + Offset) at several sizes. Nests
// outside the int64 affine model have no canonical form.
func TestRebase(t *testing.T) {
	n := nest.MustNew([]string{"N"},
		nest.L("i", "3", "N+3"),
		nest.L("j", "5", "i+2"),
		nest.L("k", "i", "j+1"),
	)
	rb, ok := Rebase(n, 3)
	if !ok {
		t.Fatal("Rebase refused an affine nest")
	}
	if want := []int64{3, 5, 0}; fmt.Sprint(rb.Offset) != fmt.Sprint(want) {
		t.Fatalf("offsets = %v, want %v", rb.Offset, want)
	}
	// j' ∈ [0, i'), k ∈ [i'+3, j'+6): rows over (N, i', j', 1).
	if got := fmt.Sprint(rb.Lower, rb.Upper); got != "[[0 0] [0 0 0] [0 1 0 3]] [[1 0] [0 1 0] [0 0 1 6]]" {
		t.Fatalf("rows = %s", got)
	}
	canon := rb.Nest()
	if got := canon.String(); got != "params p0\nfor (i0 = 0 ; i0 < p0 ; i0++)\n  for (i1 = 0 ; i1 < i0 ; i1++)\n    for (i2 = i0 + 3 ; i2 < i1 + 6 ; i2++)\n" {
		t.Fatalf("canonical nest:\n%s", got)
	}
	for _, N := range []int64{0, 4, 9} {
		var want, got []string
		n.MustBind(map[string]int64{"N": N}).Enumerate(func(idx []int64) bool {
			want = append(want, fmt.Sprint(idx))
			return true
		})
		canon.MustBind(map[string]int64{"p0": N}).Enumerate(func(idx []int64) bool {
			got = append(got, fmt.Sprint([]int64{idx[0] + 3, idx[1] + 5, idx[2]}))
			return true
		})
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("N=%d: rebased points %v, want %v", N, got, want)
		}
	}
	for _, bad := range []*nest.Nest{
		{Params: []string{"N"}, Loops: []nest.Loop{nest.L("i", "0", "N*N")}},
		{Params: []string{"N"}, Loops: []nest.Loop{nest.L("N", "0", "4")}},
		{Params: []string{"N"}, Loops: []nest.Loop{nest.L("i", "0", "N"), nest.L("j", "0", "k")}},
		{Params: []string{"N"}, Loops: []nest.Loop{nest.L("i", "0", "N/2")}},
		{Params: []string{"N"}, Loops: []nest.Loop{nest.L("i", "-9223372036854775807", "N"), nest.L("j", "0", "2*i")}},
	} {
		if _, ok := Rebase(bad, bad.Depth()); ok {
			t.Errorf("Rebase accepted %v", bad)
		}
	}
}
