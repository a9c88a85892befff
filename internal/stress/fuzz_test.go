package stress

import (
	"testing"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/omp"
	"repro/internal/unrank"
)

// FuzzStressNest drives the generator from arbitrary seeds and pushes
// each generated nest through every recovery mode: float64 radicals
// with exact-search fallback, breakpoint tables with exact-search
// fallback, and exact binary search alone must each visit exactly the
// sequential iteration set. Unlike FuzzRankUnrank (which
// fuzzes the C front end), this target fuzzes the numeric recovery
// engine over the space of collapsible shapes directly.
func FuzzStressNest(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c, err := NewCase(seed)
		if err != nil {
			// Pathological seeds that never generate a collapsible
			// nest are uninteresting, not failures.
			t.Skip(err)
		}
		truth, err := enumerate(c)
		if err != nil {
			t.Fatalf("%s: enumerate: %v", c.Name, err)
		}
		tuner := autotune.New(autotune.Options{MaxWorkers: 2})
		for _, v := range Modes() {
			res, err := core.Collapse(c.Nest, c.C, unrank.Options{Mode: v})
			if err != nil {
				t.Fatalf("%s: collapse at %s: %v", c.Name, v, err)
			}
			sched := omp.Schedule{Kind: omp.Dynamic, Chunk: 3}
			got, cs, err := runParallel(res, c.Params, 2, sched)
			if err != nil {
				t.Fatalf("%s at %s: %v", c.Name, v, err)
			}
			if err := diffVisitSets(truth, got); err != nil {
				t.Fatalf("%s at %s: %v (stats: %s)", c.Name, v, err, cs.Stats.String())
			}
			// The range-batched engine must visit the identical set; the
			// chunk size deliberately splits innermost runs.
			got, rs, err := runParallelRanges(res, c.Params, 2, sched)
			if err != nil {
				t.Fatalf("%s at %s (ranges): %v", c.Name, v, err)
			}
			if err := diffVisitSets(truth, got); err != nil {
				t.Fatalf("%s at %s (ranges): %v (engine: %+v)", c.Name, v, err, rs)
			}
			// The tuned path: whatever triple the planner picks (later
			// modes recall it from the shared tuner's cache), the
			// visit set must still be the sequential truth.
			got, cs, err = runTuned(tuner, res, c.Params)
			if err != nil {
				t.Fatalf("%s at %s (auto): %v", c.Name, v, err)
			}
			if err := diffVisitSets(truth, got); err != nil {
				t.Fatalf("%s at %s (auto): %v (stats: %s)", c.Name, v, err, cs.Stats.String())
			}
		}
	})
}
