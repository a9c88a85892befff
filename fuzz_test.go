package nonrect

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRankUnrank feeds arbitrary annotated C sources and a parameter
// value through the whole pipeline — parse, collapse, bind, then Unrank
// at every pc — and checks two things wherever the pipeline accepts the
// input. On every binding, irregular ones included, Unrank either
// returns a tuple inside the domain or an error wrapping
// ErrRecoveryDiverged or ErrOverflow. On regular bindings the rank/unrank
// round trip over the enumerated iteration space holds exactly. Nothing
// may panic: every rejection must be an error (the typed taxonomy).
//
// Seeds are the five sample nests shipped in testdata/ (triangular,
// tetrahedral, rhomboidal, trapezoid and the quartic §IV.B limit case)
// plus irregularSeed.
func FuzzRankUnrank(f *testing.F) {
	seeds, err := filepath.Glob("testdata/*.c")
	if err != nil || len(seeds) < 5 {
		f.Fatalf("testdata seeds: %v (err %v)", seeds, err)
	}
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), int64(6))
	}
	f.Add(irregularSeed, int64(0))
	f.Fuzz(func(t *testing.T, src string, n int64) {
		// Small positive parameter values keep enumeration cheap while
		// still exercising every recovery level.
		n = 2 + (n%9+9)%9
		prog, err := ParseC(src)
		if err != nil {
			return
		}
		res, err := Collapse(prog.Nest, prog.CollapseCount)
		if err != nil {
			return
		}
		params := map[string]int64{}
		for _, p := range prog.Nest.Params {
			params[p] = n
		}
		b, err := res.Unranker.Bind(params)
		if err != nil {
			return
		}
		if b.Total() > 20_000 {
			return
		}
		inst := b.Instance()
		idx := make([]int64, inst.Depth())
		for pc := int64(1); pc <= b.Total(); pc++ {
			err := b.Unrank(pc, idx)
			switch {
			case errors.Is(err, ErrRecoveryDiverged), errors.Is(err, ErrOverflow):
			case err != nil:
				t.Fatalf("Unrank(%d): untyped error %v\nsource:\n%s", pc, err, src)
			case !inst.Contains(idx):
				t.Fatalf("Unrank(%d) = %v, outside the domain\nsource:\n%s", pc, idx, src)
			}
		}
		// Bindings with negative inner ranges for some prefixes
		// ("irregular", e.g. j in [i+1, 2) once i > 1) are outside the
		// Fig. 5 model: the counting polynomial sums negative range
		// lengths and the ranking is not a bijection. The pipeline cannot
		// detect this statically, so require the round trip only on
		// regular bindings. The bounded count comparison catches most
		// irregular ones before CheckRegular walks the prefixes.
		var trueCount int64
		inst.Enumerate(func([]int64) bool {
			trueCount++
			return trueCount <= 20_000
		})
		if trueCount != b.Total() || inst.CheckRegular() != nil {
			return
		}
		var pc int64
		inst.Enumerate(func(truth []int64) bool {
			pc++
			if r := b.Rank(truth); r != pc {
				t.Fatalf("Rank(%v) = %d, want %d\nsource:\n%s", truth, r, pc, src)
			}
			if err := b.Unrank(pc, idx); err != nil {
				t.Fatalf("Unrank(%d): %v\nsource:\n%s", pc, err, src)
			}
			for q := range idx {
				if idx[q] != truth[q] {
					t.Fatalf("Unrank(%d) = %v, want %v\nsource:\n%s", pc, idx, truth, src)
				}
			}
			return true
		})
		if pc != b.Total() {
			t.Fatalf("enumerated %d iterations, Total() = %d\nsource:\n%s", pc, b.Total(), src)
		}
	})
}

// irregularSeed is irregular at N=2 (parameter seed 0): j's range
// 1:N-i+2 is negative from i=4 on, and pc=47 recovers i=5, where j has
// no iteration.
const irregularSeed = `#pragma omp parallel for collapse(3)
for (i = 0; i < 3 * N; i++)
  for (j = 1; j < N - i + 2; j++)
    for (k = -2 * N + i - j + 1; k < N + j; k++)
      S(i, j, k);
`
