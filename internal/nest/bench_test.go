package nest

import "testing"

// benchNests are the shapes the bound-shape specializer targets: every
// bound of tri/tetra/skew classifies as constant, i+c or a·i+c; the
// two-term nest keeps one generic bound (the i+j lower bound) so the
// fallback path is measured too.
func benchNests() []struct {
	name   string
	n      *Nest
	params map[string]int64
} {
	return []struct {
		name   string
		n      *Nest
		params map[string]int64
	}{
		{"tri-2d", MustNew([]string{"N"},
			L("i", "0", "N-1"), L("j", "i+1", "N")), map[string]int64{"N": 500}},
		{"tetra-3d", MustNew([]string{"N"},
			L("i", "0", "N-1"), L("j", "0", "i+1"), L("k", "j", "i+1")), map[string]int64{"N": 90}},
		{"skew-2d", MustNew([]string{"N"},
			L("i", "0", "N"), L("j", "2*i", "2*i+40")), map[string]int64{"N": 500}},
		{"two-term-3d", MustNew([]string{"N"},
			L("i", "0", "N"), L("j", "0", "N"), L("k", "i+j", "2*N+2")), map[string]int64{"N": 40}},
	}
}

var evalSink int64

// benchBounds walks the full iteration space evaluating the fused
// innermost (lo, hi) pair at every tuple — the evaluation pattern of the
// range-batched engine's hot path.
func benchBounds(b *testing.B, inst *Instance) {
	idx := make([]int64, inst.Depth())
	last := inst.Depth() - 1
	b.ReportAllocs()
	var sink int64
	for i := 0; i < b.N; i++ {
		inst.EnumerateScratch(idx, func(t []int64) bool {
			lo, hi := inst.BoundsAt(last, t)
			sink += hi - lo
			return true
		})
	}
	evalSink = sink
}

// BenchmarkBoundsSpecialized measures the shape-specialized affine
// evaluators (direct struct dispatch, no term loop).
func BenchmarkBoundsSpecialized(b *testing.B) {
	for _, c := range benchNests() {
		inst, err := c.n.Bind(c.params)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) { benchBounds(b, inst) })
	}
}

// BenchmarkBoundsGeneric measures the same walk with specialization
// disabled (every bound forced onto the generic term loop) — the
// baseline the specializer is judged against.
func BenchmarkBoundsGeneric(b *testing.B) {
	for _, c := range benchNests() {
		inst, err := c.n.Bind(c.params)
		if err != nil {
			b.Fatal(err)
		}
		inst.forceGenericBounds()
		b.Run(c.name, func(b *testing.B) { benchBounds(b, inst) })
	}
}

// BenchmarkSkip measures what one carry of Skip costs: each op skips
// from the first tuple to the last, crossing every innermost run, and
// ns/carry divides the op's time by the runs crossed. The collapsed
// engine's carry bound (omp's seedCarries) is a recovery's cost over
// this figure.
func BenchmarkSkip(b *testing.B) {
	for _, c := range benchNests() {
		inst, err := c.n.Bind(c.params)
		if err != nil {
			b.Fatal(err)
		}
		first := make([]int64, inst.Depth())
		inst.First(first)
		var total, runs int64
		last := inst.Depth() - 1
		prev := append([]int64(nil), first...)
		inst.Enumerate(func(idx []int64) bool {
			total++
			for k := 0; k < last; k++ {
				if idx[k] != prev[k] {
					runs++
					break
				}
			}
			copy(prev, idx)
			return true
		})
		idx := make([]int64, inst.Depth())
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(idx, first)
				if !inst.Skip(idx, total-1, int(runs)) {
					b.Fatal("skip fell short")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*max(runs, 1)), "ns/carry")
		})
	}
}
