package unrank

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/nest"
	"repro/internal/nest/nesttest"
)

func correlationNest() *nest.Nest {
	return nest.MustNew([]string{"N"}, nest.L("i", "0", "N-1"), nest.L("j", "i+1", "N"))
}

func tetraNest() *nest.Nest {
	return nest.MustNew([]string{"N"}, nest.L("i", "0", "N-1"), nest.L("j", "0", "i+1"), nest.L("k", "j", "i+1"))
}

// checkBijection verifies Unrank(Rank(t)) = t for every iteration t and
// Rank(Unrank(pc)) = pc for every pc.
func checkBijection(t *testing.T, b *Bound) {
	t.Helper()
	inst := b.Instance()
	depth := inst.Depth()
	idx := make([]int64, depth)
	got := make([]int64, depth)
	var pc int64
	inst.Enumerate(func(truth []int64) bool {
		pc++
		if r := b.Rank(truth); r != pc {
			t.Fatalf("Rank(%v) = %d, want %d", truth, r, pc)
		}
		if err := b.Unrank(pc, got); err != nil {
			t.Fatalf("Unrank(%d): %v", pc, err)
		}
		if !reflect.DeepEqual(got, truth) {
			t.Fatalf("Unrank(%d) = %v, want %v", pc, got, truth)
		}
		return true
	})
	if pc != b.Total() {
		t.Fatalf("Total = %d, enumerated %d", b.Total(), pc)
	}
	_ = idx
}

func TestClosedFormCorrelation(t *testing.T) {
	u := MustNew(correlationNest(), Options{Mode: ModeClosedForm})
	for _, N := range []int64{2, 3, 5, 10, 40} {
		checkBijection(t, u.MustBind(map[string]int64{"N": N}))
	}
}

func TestClosedFormTetra(t *testing.T) {
	u := MustNew(tetraNest(), Options{Mode: ModeClosedForm})
	for _, N := range []int64{2, 3, 5, 12, 25} {
		checkBijection(t, u.MustBind(map[string]int64{"N": N}))
	}
}

func TestBinarySearchMode(t *testing.T) {
	u := MustNew(tetraNest(), Options{Mode: ModeBinarySearch})
	b := u.MustBind(map[string]int64{"N": 15})
	checkBijection(t, b)
	if b.Stats().RootEvals != 0 {
		t.Error("binary-search mode performed root evaluations")
	}
	if b.Stats().Searches == 0 {
		t.Error("binary-search mode performed no searches")
	}
}

func TestAgreementClosedVsBinary(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n, params := nesttest.RandRegularNest(r)
		cf, err := New(n, Options{Mode: ModeClosedForm})
		if err != nil {
			t.Fatalf("trial %d nest\n%s: %v", trial, n, err)
		}
		bs := MustNew(n, Options{Mode: ModeBinarySearch})
		bc := cf.MustBind(params)
		bb := bs.MustBind(params)
		if bc.Total() != bb.Total() {
			t.Fatalf("totals differ: %d vs %d", bc.Total(), bb.Total())
		}
		i1 := make([]int64, n.Depth())
		i2 := make([]int64, n.Depth())
		for pc := int64(1); pc <= bc.Total(); pc++ {
			if err := bc.Unrank(pc, i1); err != nil {
				t.Fatal(err)
			}
			if err := bb.Unrank(pc, i2); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(i1, i2) {
				t.Fatalf("trial %d nest\n%spc=%d: closed %v vs binary %v", trial, n, pc, i1, i2)
			}
		}
	}
}

func TestPropertyBijectionRandomNests(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n, params := nesttest.RandRegularNest(r)
		u, err := New(n, Options{Mode: ModeClosedForm})
		if err != nil {
			t.Fatalf("trial %d nest\n%s: %v", trial, n, err)
		}
		checkBijection(t, u.MustBind(params))
	}
}

func TestNonZeroLowerBounds(t *testing.T) {
	n, params := nesttest.NonZeroLowerNest()
	u := MustNew(n, Options{Mode: ModeClosedForm})
	checkBijection(t, u.MustBind(params))
}

func TestUnrankMatchesIncrement(t *testing.T) {
	// Unrank(pc+1) must equal Increment(Unrank(pc)) — the §V chunked
	// recovery scheme depends on this.
	u := MustNew(tetraNest(), Options{Mode: ModeClosedForm})
	b := u.MustBind(map[string]int64{"N": 9})
	cur := make([]int64, 3)
	nxt := make([]int64, 3)
	if err := b.Unrank(1, cur); err != nil {
		t.Fatal(err)
	}
	for pc := int64(2); pc <= b.Total(); pc++ {
		if !b.Increment(cur) {
			t.Fatalf("Increment exhausted at pc=%d", pc)
		}
		if err := b.Unrank(pc, nxt); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cur, nxt) {
			t.Fatalf("pc=%d: increment %v vs unrank %v", pc, cur, nxt)
		}
	}
	if b.Increment(cur) {
		t.Error("Increment past the last iteration returned true")
	}
}

func TestLargeParameterPrecision(t *testing.T) {
	// Floating-point radical evaluation degrades for large pc; the exact
	// correction must keep unranking exact. Spot-check boundary ranks for
	// a large N without enumerating the full space.
	u := MustNew(correlationNest(), Options{Mode: ModeClosedForm})
	N := int64(100000)
	b := u.MustBind(map[string]int64{"N": N})
	wantTotal := (N - 1) * N / 2
	if b.Total() != wantTotal {
		t.Fatalf("Total = %d, want %d", b.Total(), wantTotal)
	}
	idx := make([]int64, 2)
	// First and last iterations.
	mustUnrank := func(pc int64, wi, wj int64) {
		t.Helper()
		if err := b.Unrank(pc, idx); err != nil {
			t.Fatalf("Unrank(%d): %v", pc, err)
		}
		if idx[0] != wi || idx[1] != wj {
			t.Errorf("Unrank(%d) = %v, want [%d %d]", pc, idx, wi, wj)
		}
	}
	mustUnrank(1, 0, 1)
	mustUnrank(wantTotal, N-2, N-1)
	// Random interior ranks: verify via Rank round-trip.
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		pc := 1 + r.Int63n(wantTotal)
		if err := b.Unrank(pc, idx); err != nil {
			t.Fatalf("Unrank(%d): %v", pc, err)
		}
		if !b.Instance().Contains(idx) {
			t.Fatalf("Unrank(%d) = %v outside domain", pc, idx)
		}
		if got := b.Rank(idx); got != pc {
			t.Fatalf("Rank(Unrank(%d)) = %d", pc, got)
		}
	}
}

func TestTetraLargePrecision(t *testing.T) {
	u := MustNew(tetraNest(), Options{Mode: ModeClosedForm})
	N := int64(2000)
	b := u.MustBind(map[string]int64{"N": N})
	wantTotal := (N*N*N - N) / 6
	if b.Total() != wantTotal {
		t.Fatalf("Total = %d, want %d", b.Total(), wantTotal)
	}
	idx := make([]int64, 3)
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 800; trial++ {
		pc := 1 + r.Int63n(wantTotal)
		if err := b.Unrank(pc, idx); err != nil {
			t.Fatalf("Unrank(%d): %v", pc, err)
		}
		if !b.Instance().Contains(idx) {
			t.Fatalf("Unrank(%d) = %v outside domain", pc, idx)
		}
		if got := b.Rank(idx); got != pc {
			t.Fatalf("Rank(Unrank(%d)) = %d", pc, got)
		}
	}
}

func TestUnrankErrors(t *testing.T) {
	u := MustNew(correlationNest(), Options{})
	b := u.MustBind(map[string]int64{"N": 5})
	idx := make([]int64, 2)
	if err := b.Unrank(0, idx); err == nil {
		t.Error("pc=0 accepted")
	}
	if err := b.Unrank(b.Total()+1, idx); err == nil {
		t.Error("pc beyond total accepted")
	}
	if err := b.Unrank(1, make([]int64, 3)); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestSingleLoopCollapse(t *testing.T) {
	// Depth-1 nest: unranking is pc-1 plus the lower bound.
	n := nest.MustNew([]string{"N"}, nest.L("i", "3", "N"))
	u := MustNew(n, Options{Mode: ModeClosedForm})
	b := u.MustBind(map[string]int64{"N": 9})
	if b.Total() != 6 {
		t.Fatalf("Total = %d", b.Total())
	}
	idx := make([]int64, 1)
	for pc := int64(1); pc <= 6; pc++ {
		if err := b.Unrank(pc, idx); err != nil {
			t.Fatal(err)
		}
		if idx[0] != 2+pc {
			t.Errorf("Unrank(%d) = %d, want %d", pc, idx[0], 2+pc)
		}
	}
}

func TestRootMetadata(t *testing.T) {
	u := MustNew(correlationNest(), Options{Mode: ModeClosedForm})
	if u.RootExpr(0) == nil {
		t.Error("RootExpr(0) = nil")
	}
	if u.RootExpr(1) != nil {
		t.Error("RootExpr(last level) != nil")
	}
	if got := len(u.RootCandidates(0)); got != 2 {
		t.Errorf("RootCandidates(0) = %d, want 2 (quadratic)", got)
	}
	if i := u.RootIndex(0); i < 0 || i > 1 {
		t.Errorf("RootIndex(0) = %d", i)
	}
	if u.RootIndex(5) != -1 || u.RootCandidates(5) != nil || u.RootExpr(-1) != nil {
		t.Error("out-of-range root metadata accessors")
	}
	if u.Ranking() == nil || u.Count() == nil || u.Nest() == nil {
		t.Error("nil metadata accessors")
	}
}

func TestDegreeTooHighRejected(t *testing.T) {
	deep := nest.MustNew([]string{"N"},
		nest.L("i", "0", "N"),
		nest.L("j", "0", "i+1"),
		nest.L("k", "0", "i+1"),
		nest.L("l", "0", "i+1"),
		nest.L("m", "0", "i+1"),
	)
	if _, err := New(deep, Options{}); err == nil {
		t.Error("degree-5 nest accepted")
	}
}

func TestQuarticNestClosedForm(t *testing.T) {
	// Four nested loops all depending on i produce a quartic recovery
	// equation at the outermost level — the hardest case the paper
	// supports (§IV.B limit).
	n := nest.MustNew([]string{"N"},
		nest.L("i", "0", "N"),
		nest.L("j", "0", "i+1"),
		nest.L("k", "0", "i+1"),
		nest.L("l", "0", "i+1"),
	)
	u, err := New(n, Options{Mode: ModeClosedForm})
	if err != nil {
		t.Fatalf("quartic nest rejected: %v", err)
	}
	for _, N := range []int64{2, 3, 6, 9} {
		checkBijection(t, u.MustBind(map[string]int64{"N": N}))
	}
}

func TestHugeParameterExactness(t *testing.T) {
	// N = 10^7: the total (~5·10^13) pushes the radical evaluation to
	// the edge of double precision, so the exact correction (and, if
	// needed, the binary-search fallback) must repair floor errors.
	u := MustNew(correlationNest(), Options{Mode: ModeClosedForm})
	N := int64(10_000_000)
	b := u.MustBind(map[string]int64{"N": N})
	if want := (N - 1) * N / 2; b.Total() != want {
		t.Fatalf("Total = %d, want %d", b.Total(), want)
	}
	idx := make([]int64, 2)
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 500; trial++ {
		pc := 1 + r.Int63n(b.Total())
		if err := b.Unrank(pc, idx); err != nil {
			t.Fatalf("Unrank(%d): %v", pc, err)
		}
		if !b.Instance().Contains(idx) {
			t.Fatalf("Unrank(%d) = %v outside domain", pc, idx)
		}
		if got := b.Rank(idx); got != pc {
			t.Fatalf("Rank(Unrank(%d)) = %d", pc, got)
		}
	}
	// Group boundaries are the FP-hardest ranks: the exact value of the
	// root lands on an integer. Exercise first/last ranks of many groups.
	for i := int64(0); i < N-2; i += N / 97 {
		first := b.Rank([]int64{i, i + 1})
		if err := b.Unrank(first, idx); err != nil {
			t.Fatal(err)
		}
		if idx[0] != i || idx[1] != i+1 {
			t.Fatalf("group %d first rank recovered %v", i, idx)
		}
		last := b.Rank([]int64{i, N - 1})
		if err := b.Unrank(last, idx); err != nil {
			t.Fatal(err)
		}
		if idx[0] != i || idx[1] != N-1 {
			t.Fatalf("group %d last rank recovered %v", i, idx)
		}
	}
	s := b.Stats()
	t.Logf("stats at N=1e7: rootEvals=%d corrections=%d fallbacks=%d searches=%d",
		s.RootEvals, s.Corrections, s.Fallbacks, s.Searches)
}

func TestTwoParamNestBijection(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	for trial := 0; trial < 25; trial++ {
		n, params := nesttest.RandTwoParamNest(r)
		u, err := New(n, Options{Mode: ModeClosedForm})
		if err != nil {
			t.Fatalf("trial %d nest\n%s: %v", trial, n, err)
		}
		checkBijection(t, u.MustBind(params))
	}
}

func TestExtremeScaleTetra(t *testing.T) {
	// N = 10^6: the total (~1.67·10^17) approaches the int64 limit and
	// the cubic radical loses many low-order bits at large pc, so this
	// exercises the exact-correction and binary-search fallback paths in
	// anger. Every recovery must still be exact.
	u := MustNew(tetraNest(), Options{Mode: ModeClosedForm})
	N := int64(1_000_000)
	b := u.MustBind(map[string]int64{"N": N})
	if want := (N*N*N - N) / 6; b.Total() != want {
		t.Fatalf("Total = %d, want %d", b.Total(), want)
	}
	idx := make([]int64, 3)
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 300; trial++ {
		pc := 1 + r.Int63n(b.Total())
		if err := b.Unrank(pc, idx); err != nil {
			t.Fatalf("Unrank(%d): %v", pc, err)
		}
		if !b.Instance().Contains(idx) {
			t.Fatalf("Unrank(%d) = %v outside domain", pc, idx)
		}
		if got := b.Rank(idx); got != pc {
			t.Fatalf("Rank(Unrank(%d)) = %d", pc, got)
		}
	}
	s := b.Stats()
	t.Logf("stats at N=1e6 (tetra): rootEvals=%d corrections=%d fallbacks=%d searches=%d",
		s.RootEvals, s.Corrections, s.Fallbacks, s.Searches)
	if s.Corrections == 0 && s.Fallbacks == 0 {
		t.Log("note: radicals stayed exact at this scale (no repairs needed)")
	}
}

// TestDefaultSamplesSkipOverflow collapses a nest whose bounds fit int64
// only at N=1: root selection must skip the default samples whose
// binding overflows (N = 4, 7, 11, 3, 2) and select on N=1 instead of
// refusing the nest.
func TestDefaultSamplesSkipOverflow(t *testing.T) {
	n := nest.MustNew([]string{"N"},
		nest.L("i", "0", "10"), nest.L("j", "4611686018427387904*N", "4611686018427387904*N+5"))
	u, err := New(n, Options{Mode: ModeClosedForm})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	b := u.MustBind(map[string]int64{"N": 1})
	idx := make([]int64, 2)
	for _, c := range []struct {
		pc   int64
		want [2]int64
	}{{1, [2]int64{0, 1 << 62}}, {50, [2]int64{9, 1<<62 + 4}}} {
		if err := b.Unrank(c.pc, idx); err != nil || idx[0] != c.want[0] || idx[1] != c.want[1] {
			t.Errorf("Unrank(%d) = %v, %v; want %v", c.pc, idx, err, c.want)
		}
	}
	// With no default binding in range the overflow is reported.
	huge := nest.MustNew([]string{"N"},
		nest.L("i", "0", "10"), nest.L("j", "9223372036854775807*N", "9223372036854775807*N+5"))
	if _, err := New(huge, Options{Mode: ModeClosedForm}); !errors.Is(err, faults.ErrOverflow) {
		t.Errorf("New on a nest no sample binds: err %v, want ErrOverflow", err)
	}
}
