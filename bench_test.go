package nonrect

// Benchmark harness: one testing.B benchmark per paper figure plus
// ablation benches for the design choices called out in DESIGN.md
// (closed-form vs binary-search recovery, §V chunked recovery vs
// per-iteration recovery, schedule kinds). The figures themselves, with
// paper-scale problem sizes and rendered tables, are regenerated by
// cmd/benchfig; these benches exercise the same code paths at test-scale
// sizes so `go test -bench=.` stays fast.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/omp"
	"repro/internal/unrank"
)

// BenchmarkFig2 measures the static-load computation of Fig. 2.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2(1000, 5)
		if len(r.Loads) != 5 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFig8 measures the root-curve sampling of Fig. 8.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig8()) != 10 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFig9 runs, for every kernel, the three executable variants
// behind Fig. 9 (outer static, outer dynamic, collapsed static) on the
// goroutine runtime at test sizes.
func BenchmarkFig9(b *testing.B) {
	threads := omp.DefaultThreads()
	for _, k := range kernels.All() {
		k := k
		p := k.TestParams
		inst := k.New(p)
		res, err := k.Collapsed()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(k.Name+"/outer-static", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.RunOuterParallel(inst, threads, omp.Schedule{Kind: omp.Static})
			}
		})
		b.Run(k.Name+"/outer-dynamic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.RunOuterParallel(inst, threads, omp.Schedule{Kind: omp.Dynamic})
			}
		})
		b.Run(k.Name+"/collapsed-static", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := kernels.RunCollapsedParallel(k, inst, res, p, threads,
					omp.Schedule{Kind: omp.Static}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10 runs the serial original vs the serial collapsed
// program with 12 recoveries (the Fig. 10 protocol) for every kernel,
// including the fully collapsed covariance/symm variants.
func BenchmarkFig10(b *testing.B) {
	list := append(kernels.All(), kernels.CovarianceFull, kernels.SymmFull)
	for _, k := range list {
		k := k
		p := k.TestParams
		inst := k.New(p)
		res, err := k.Collapsed()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(k.Name+"/serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.RunSeq(inst)
			}
		})
		b.Run(k.Name+"/collapsed-12chunks", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := kernels.RunCollapsedSerialChunks(k, inst, res, p, 12); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUnrank measures one full index recovery (the costly operation
// the §V scheme hoists out of the loop) for a quadratic and a cubic
// ranking polynomial, in closed-form and binary-search modes — the
// central ablation of the paper's approach.
func BenchmarkUnrank(b *testing.B) {
	cases := []struct {
		name string
		n    *Nest
		prm  map[string]int64
	}{
		{"correlation-quadratic", MustNewNest([]string{"N"},
			L("i", "0", "N-1"), L("j", "i+1", "N")), map[string]int64{"N": 5000}},
		{"tetra-cubic", MustNewNest([]string{"N"},
			L("i", "0", "N-1"), L("j", "0", "i+1"), L("k", "j", "i+1")), map[string]int64{"N": 800}},
	}
	for _, c := range cases {
		for _, mode := range []unrank.Mode{unrank.ModeClosedForm, unrank.ModeBinarySearch} {
			modeName := "closed-form"
			if mode == unrank.ModeBinarySearch {
				modeName = "binary-search"
			}
			u, err := unrank.New(c.n, unrank.Options{Mode: mode})
			if err != nil {
				b.Fatal(err)
			}
			bd, err := u.Bind(c.prm)
			if err != nil {
				b.Fatal(err)
			}
			idx := make([]int64, c.n.Depth())
			total := bd.Total()
			b.Run(fmt.Sprintf("%s/%s", c.name, modeName), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pc := 1 + int64(i)%total
					if err := bd.Unrank(pc, idx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkIncrement measures the lexicographic successor operation —
// the cheap step that §V substitutes for recovery at every iteration.
func BenchmarkIncrement(b *testing.B) {
	n := MustNewNest([]string{"N"}, L("i", "0", "N-1"), L("j", "0", "i+1"), L("k", "j", "i+1"))
	u, err := unrank.New(n, unrank.Options{})
	if err != nil {
		b.Fatal(err)
	}
	bd, err := u.Bind(map[string]int64{"N": 500})
	if err != nil {
		b.Fatal(err)
	}
	idx := make([]int64, 3)
	if err := bd.Unrank(1, idx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !bd.Increment(idx) {
			bd.Unrank(1, idx)
		}
	}
}

// BenchmarkCollapseConstruction measures the whole symbolic pipeline
// (ranking polynomial, radical solving, root selection) — the
// compile-time cost of the transformation.
func BenchmarkCollapseConstruction(b *testing.B) {
	nests := map[string]*Nest{
		"triangular-2d":  MustNewNest([]string{"N"}, L("i", "0", "N-1"), L("j", "i+1", "N")),
		"tetrahedral-3d": MustNewNest([]string{"N"}, L("i", "0", "N-1"), L("j", "0", "i+1"), L("k", "j", "i+1")),
		"quartic-4d": MustNewNest([]string{"N"},
			L("i", "0", "N"), L("j", "0", "i+1"), L("k", "0", "i+1"), L("l", "0", "i+1")),
	}
	for name, n := range nests {
		n := n
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Collapse(n, n.Depth(), unrank.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollapse measures repeated Collapse of the same nest shapes
// with and without the collapse cache — the warm path is the integer
// key of the canonical band plus a view of the cached artifact.
func BenchmarkCollapse(b *testing.B) {
	nests := map[string]*Nest{
		"triangular-2d":  MustNewNest([]string{"N"}, L("i", "0", "N-1"), L("j", "i+1", "N")),
		"tetrahedral-3d": MustNewNest([]string{"N"}, L("i", "0", "N-1"), L("j", "0", "i+1"), L("k", "j", "i+1")),
	}
	for name, n := range nests {
		n := n
		b.Run(name+"/uncached", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Collapse(n, n.Depth()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/cached", func(b *testing.B) {
			cache := NewCollapseCache(16)
			if _, err := Collapse(n, n.Depth(), WithCache(cache)); err != nil {
				b.Fatal(err) // warm the cache outside the timed loop
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Collapse(n, n.Depth(), WithCache(cache)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedules measures the worksharing runtime itself (empty
// bodies): the per-chunk overhead differences between schedule kinds are
// the quantities the Fig. 9 simulation calibrates.
func BenchmarkSchedules(b *testing.B) {
	const iters = 1 << 14
	threads := omp.DefaultThreads()
	for _, s := range []omp.Schedule{
		{Kind: omp.Static},
		{Kind: omp.StaticChunk, Chunk: 64},
		{Kind: omp.Dynamic, Chunk: 1},
		{Kind: omp.Dynamic, Chunk: 64},
		{Kind: omp.Guided},
	} {
		s := s
		name := s.Kind.String()
		if s.Chunk > 0 {
			name = fmt.Sprintf("%s-%d", s.Kind, s.Chunk)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				omp.ParallelFor(threads, 0, iters, s, func(int, int64) {})
			}
		})
	}
}

// BenchmarkParallelForTelemetryOff measures the public ParallelFor entry
// point, which carries no telemetry — the fast path that must stay
// indistinguishable from the uninstrumented runtime. Run with -benchmem
// to see the allocation figures the guard test below asserts on.
func BenchmarkParallelForTelemetryOff(b *testing.B) {
	const iters = 1 << 14
	threads := omp.DefaultThreads()
	sched := omp.Schedule{Kind: omp.Static}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ParallelFor(threads, 0, iters, sched, func(int, int64) {})
	}
}

// TestParallelForTelemetryOffNoPerIterAlloc is the allocation guard for
// the uninstrumented loop: with threads=1 (a one-worker team runs on
// the caller, no goroutine-spawn noise) the allocations of a
// ParallelFor call must not grow with the iteration count — i.e. the
// hot loop allocates nothing.
func TestParallelForTelemetryOffNoPerIterAlloc(t *testing.T) {
	sched := omp.Schedule{Kind: omp.Static}
	run := func(iters int64) float64 {
		return testing.AllocsPerRun(20, func() {
			ParallelFor(1, 0, iters, sched, func(int, int64) {})
		})
	}
	small, large := run(1<<10), run(1<<14)
	if large > small {
		t.Errorf("telemetry-off ParallelFor allocates per iteration: %v allocs at 1k iters, %v at 16k",
			small, large)
	}
	if small > 4 {
		t.Errorf("telemetry-off ParallelFor allocates %v per call, want a small constant", small)
	}
}

// BenchmarkEngines compares the three §V execution engines on
// triangular shapes under the serial overhead protocol (threads=1, so
// ns/op is pure control cost): the per-iteration driver (recover once
// per chunk, then per-iteration incrementation), the range-batched
// engine (bounds re-evaluated only on outer carries, innermost level a
// flat counted loop), and recover-every (full closed-form recovery at
// each iteration). One benchmark op is one full traversal of the
// collapsed space; run with -benchmem to see that the steady state
// allocates only the constant per-call setup.
func BenchmarkEngines(b *testing.B) {
	cases := []struct {
		name   string
		n      *Nest
		params map[string]int64
	}{
		{"tri-2d", MustNewNest([]string{"N"},
			L("i", "0", "N-1"), L("j", "i+1", "N")), map[string]int64{"N": 700}},
		{"tetra-3d", MustNewNest([]string{"N"},
			L("i", "0", "N-1"), L("j", "0", "i+1"), L("k", "j", "i+1")), map[string]int64{"N": 120}},
	}
	sched := omp.Schedule{Kind: omp.StaticChunk, Chunk: 4096}
	for _, c := range cases {
		res, err := Collapse(c.n, c.n.Depth())
		if err != nil {
			b.Fatal(err)
		}
		var sink int64
		b.Run(c.name+"/per-iteration", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := CollapsedFor(res, c.params, 1, sched, func(tid int, idx []int64) {
					sink += idx[0]
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/range-batched", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := CollapsedForRanges(res, c.params, 1, sched,
					func(tid int, pc int64, prefix []int64, lo, hi int64) {
						for j := lo; j < hi; j++ {
							sink += j
						}
					}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/recover-every", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bd, err := res.Unranker.Bind(c.params)
				if err != nil {
					b.Fatal(err)
				}
				if err := core.ForRangeEvery(bd, 1, bd.Total(), func(pc int64, idx []int64) {
					sink += idx[0]
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
		engineSink = sink
	}
}

var engineSink int64

// BenchmarkSIMDAndWarp measures the §VI execution schemes.
func BenchmarkSIMDAndWarp(b *testing.B) {
	n := MustNewNest([]string{"N"}, L("i", "0", "N"), L("j", "i", "N"))
	res, err := Collapse(n, 2)
	if err != nil {
		b.Fatal(err)
	}
	params := map[string]int64{"N": 300}
	b.Run("simd-vlength8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := CollapsedForSIMD(res, params, 4, 8, func(int, [][]int64) {}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warp-32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := CollapsedForWarp(res, params, 32, func(int, int64, []int64) {}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
