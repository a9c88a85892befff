package transform_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/nest"
	"repro/internal/transform"
	"repro/internal/unrank"
)

// TestSkewThenCollapse reproduces the paper's pipeline end to end:
// a transformation (here skewing, the Pluto role) turns a rectangular
// nest into a non-rectangular one, which is then collapsed; executing
// the collapsed loop and mapping tuples back must cover every original
// iteration exactly once.
func TestSkewThenCollapse(t *testing.T) {
	rect := nest.MustNew([]string{"N", "M"},
		nest.L("i", "0", "N"),
		nest.L("j", "0", "M"),
	)
	tr, err := transform.Skew(rect, 1, 0, 2) // j' = j + 2i: parallelogram
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Collapse(tr.Nest, 2, unrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"N": 7, "M": 5}
	b, err := res.Unranker.Bind(params)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tr.BindMap(params)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int64]int{}
	idx := make([]int64, 2)
	orig := make([]int64, 2)
	if err := core.ForRange(b, 1, b.Total(), func(pc int64, skewed []int64) {
		copy(idx, skewed)
		m(idx, orig)
		seen[[2]int64{orig[0], orig[1]}]++
	}); err != nil {
		t.Fatal(err)
	}
	if int64(len(seen)) != 7*5 {
		t.Fatalf("covered %d original points, want 35", len(seen))
	}
	for p, c := range seen {
		if c != 1 {
			t.Fatalf("original point %v executed %d times", p, c)
		}
		if p[0] < 0 || p[0] >= 7 || p[1] < 0 || p[1] >= 5 {
			t.Fatalf("mapped point %v outside the rectangle", p)
		}
	}
}

// TestNormalizeThenCollapse checks that collapsing a normalized nest
// gives the same totals as collapsing the original.
func TestNormalizeThenCollapse(t *testing.T) {
	n := nest.MustNew([]string{"N"},
		nest.L("i", "2", "N"),
		nest.L("j", "i-1", "N+1"),
	)
	tr, err := transform.Normalize(n)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := core.Collapse(n, 2, unrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.Collapse(tr.Nest, 2, unrank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, N := range []int64{3, 6, 11} {
		p := map[string]int64{"N": N}
		b1, err := r1.Unranker.Bind(p)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := r2.Unranker.Bind(p)
		if err != nil {
			t.Fatal(err)
		}
		if b1.Total() != b2.Total() {
			t.Errorf("N=%d: totals %d vs %d", N, b1.Total(), b2.Total())
		}
	}
}
