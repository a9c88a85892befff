package unrank

import (
	"errors"
	"testing"

	"repro/internal/faults"
	"repro/internal/nest"
)

// TestIrregularBindingDiverges runs Unrank on a binding that is not
// regular: at N=2, j's range 1:N-i+2 is empty from i=3 on and negative
// from i=4, so the ranking polynomial does not count the domain. pc=47
// recovers i=5, where j has no iteration; without the domain check the
// recovery returned [5 1 2]. Every mode must refuse it with
// ErrRecoveryDiverged, and every pc must either be refused that way or
// land inside the domain.
func TestIrregularBindingDiverges(t *testing.T) {
	n := nest.MustNew([]string{"N"},
		nest.L("i", "0", "3*N"), nest.L("j", "1", "N-i+2"), nest.L("k", "-2*N+i-j+1", "N+j"))
	params := map[string]int64{"N": 2}
	if err := n.MustBind(params).CheckRegular(); err == nil {
		t.Fatal("probe binding is regular; the test needs an irregular one")
	}
	for _, mode := range []Mode{ModeClosedForm, ModeBinarySearch, ModeTable} {
		u, err := New(n, Options{Mode: mode})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		b := u.MustBind(params)
		idx := make([]int64, 3)
		if err := b.Unrank(47, idx); !errors.Is(err, faults.ErrRecoveryDiverged) {
			t.Fatalf("mode %v: Unrank(47) = %v, err %v; want ErrRecoveryDiverged", mode, idx, err)
		}
		diverged := 0
		for pc := int64(1); pc <= b.Total(); pc++ {
			err := b.Unrank(pc, idx)
			if errors.Is(err, faults.ErrRecoveryDiverged) {
				diverged++
				continue
			}
			if err != nil {
				t.Fatalf("mode %v: Unrank(%d): %v", mode, pc, err)
			}
			if !b.Instance().Contains(idx) {
				t.Fatalf("mode %v: Unrank(%d) = %v, outside the domain", mode, pc, idx)
			}
		}
		t.Logf("mode %v: %d of %d ranks refused", mode, diverged, b.Total())
	}
}

// TestPerturbedRootsStayExact shifts every float root evaluation by a
// full unit and checks recovery remains exact, because the exact integer
// correction (or the binary-search fallback when the correction budget
// is exceeded) repairs the noise.
func TestPerturbedRootsStayExact(t *testing.T) {
	// Build before activating: the perturbation would otherwise defeat
	// root selection itself (see TestNoConvenientRootClassified).
	u := MustNew(correlationNest(), Options{Mode: ModeClosedForm})
	defer faults.Activate(&faults.Plan{
		PerturbRoot: func(level int, x complex128) complex128 { return x + 1.25 },
	})()
	b := u.MustBind(map[string]int64{"N": 20})
	checkBijection(t, b)
	if s := b.Stats(); s.Corrections == 0 && s.Fallbacks == 0 {
		t.Error("perturbation repaired without corrections or fallbacks?")
	}
}

// TestNoConvenientRootClassified checks root-selection failure carries
// the typed applicability sentinel: a perturbation large enough that no
// candidate reproduces the ground truth on any validation sample.
func TestNoConvenientRootClassified(t *testing.T) {
	restore := faults.Activate(&faults.Plan{
		PerturbRoot: func(level int, x complex128) complex128 { return x + 100 },
	})
	defer restore()
	_, err := New(correlationNest(), Options{Mode: ModeClosedForm})
	if err == nil {
		t.Fatal("root selection succeeded under a +100 perturbation")
	}
	if !errors.Is(err, faults.ErrNoConvenientRoot) {
		t.Fatalf("err = %v, want ErrNoConvenientRoot in the chain", err)
	}
}
