// Package stress is a seedable differential stress harness for the
// collapsed-loop pipeline. It generates random affine nests —
// rectangular, triangular and shifted-triangular shapes like the
// paper's §VII kernels — and checks that every parallel execution
// (all four schedules plus the autotuned "auto" path, every recovery
// mode of the unranker, with and without injected root faults) visits
// exactly the iteration set of plain sequential enumeration.
//
// The harness is the repository's strongest end-to-end oracle: it does
// not trust the ranking polynomial, the radical roots, the breakpoint
// tables or the scheduler individually, only the final visit sets,
// compared exactly.
package stress

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/nest"
	"repro/internal/omp"
	"repro/internal/unrank"
)

// Case is one generated nest together with the parameter binding the
// differential runs use.
type Case struct {
	Seed   int64
	Name   string
	Nest   *nest.Nest
	C      int // collapse depth (the full nest depth)
	Params map[string]int64
	Total  int64 // sequential iteration count at Params
}

// maxGenAttempts bounds the retries when a random shape turns out not
// to be collapsible (no convenient root, empty domain, …).
const maxGenAttempts = 64

// maxCaseTotal keeps generated domains small enough that a full
// schedule × tier sweep stays fast.
const maxCaseTotal = 4000

var indexNames = []string{"i", "j", "k"}

// NewCase deterministically generates a collapsible random nest from
// the seed: same seed, same case. It retries internally until the
// generated shape collapses cleanly and has a usable iteration count.
func NewCase(seed int64) (*Case, error) {
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; attempt < maxGenAttempts; attempt++ {
		c, err := genCase(rng, seed)
		if err == nil {
			return c, nil
		}
	}
	return nil, fmt.Errorf("stress: seed %d produced no collapsible nest in %d attempts", seed, maxGenAttempts)
}

// genCase builds one random nest and validates it end to end:
// Collapse must succeed, the binding must be non-empty and modest, and
// the collapsed Total must equal the sequential enumeration count.
func genCase(rng *rand.Rand, seed int64) (*Case, error) {
	depth := 2 + rng.Intn(2) // 2 or 3
	shape := "rect"
	loops := make([]nest.Loop, depth)
	loops[0] = nest.L(indexNames[0], fmt.Sprint(rng.Intn(2)), upperExpr(rng, ""))
	for k := 1; k < depth; k++ {
		prev := indexNames[rng.Intn(k)] // any enclosing index
		switch rng.Intn(4) {
		case 0: // rectangular
			loops[k] = nest.L(indexNames[k], fmt.Sprint(rng.Intn(3)), upperExpr(rng, ""))
		case 1: // lower-triangular: i <= j <= N(+c)
			shape = "tri"
			loops[k] = nest.L(indexNames[k], prev, upperExpr(rng, ""))
		case 2: // upper-triangular: c <= j <= i(+c)
			shape = "tri"
			loops[k] = nest.L(indexNames[k], fmt.Sprint(rng.Intn(2)), upperExpr(rng, prev))
		default: // shifted triangular: i+c <= j <= N+c'
			shape = "shifted"
			loops[k] = nest.L(indexNames[k], fmt.Sprintf("%s+%d", prev, 1+rng.Intn(2)), upperExpr(rng, ""))
		}
	}
	n, err := nest.New([]string{"N"}, loops...)
	if err != nil {
		return nil, err
	}
	res, err := core.Collapse(n, depth, unrank.Options{})
	if err != nil {
		return nil, err
	}
	params := map[string]int64{"N": int64(6 + rng.Intn(8))}
	b, err := res.Unranker.Bind(params)
	if err != nil {
		return nil, err
	}
	total := b.Total()
	if total < 1 || total > maxCaseTotal {
		return nil, fmt.Errorf("stress: total %d out of band", total)
	}
	inst, err := n.Bind(params)
	if err != nil {
		return nil, err
	}
	if cnt := inst.Count(); cnt != total {
		return nil, fmt.Errorf("stress: collapsed total %d != enumerated count %d", total, cnt)
	}
	return &Case{
		Seed:   seed,
		Name:   fmt.Sprintf("seed%d-%s-d%d-N%d", seed, shape, depth, params["N"]),
		Nest:   n,
		C:      depth,
		Params: params,
		Total:  total,
	}, nil
}

// upperExpr returns an upper-bound expression: base+c, where base is
// "N" when empty.
func upperExpr(rng *rand.Rand, base string) string {
	if base == "" {
		base = "N"
	}
	if c := rng.Intn(3); c > 0 {
		return fmt.Sprintf("%s+%d", base, c)
	}
	return base
}

// Schedules is the worksharing sweep every case runs under: one of
// each OpenMP schedule kind, with deliberately awkward chunk sizes.
func Schedules() []omp.Schedule {
	return []omp.Schedule{
		{Kind: omp.Static},
		{Kind: omp.StaticChunk, Chunk: 7},
		{Kind: omp.Dynamic, Chunk: 5},
		{Kind: omp.Guided, Chunk: 3},
	}
}

// Modes is the recovery sweep, one run per mode: the float64 radical
// with exact-search fallback (closed form), the breakpoint table with
// exact-search fallback (no symbolic root selection at all, the same
// compile path CollapsedForAuto retries degree>4 nests on), and pure
// exact search.
func Modes() []unrank.Mode {
	return []unrank.Mode{unrank.ModeClosedForm, unrank.ModeTable, unrank.ModeBinarySearch}
}

// RunStats aggregates a differential sweep.
type RunStats struct {
	Cases  int
	Runs   int // schedule × mode × fault-setting executions compared
	Unrank unrank.Stats
}

func (s RunStats) String() string {
	return fmt.Sprintf("%d cases, %d differential runs; %s", s.Cases, s.Runs, s.Unrank.String())
}

// faultPlan perturbs every closed-form root far beyond the exact ±1
// correction budget, so the float64 path provably mis-recovers and exact
// search must rescue every closed-form recovery.
func faultPlan() *faults.Plan {
	return &faults.Plan{
		PerturbRoot: func(level int, x complex128) complex128 {
			return x + complex(64.5, 0)
		},
	}
}

// RunCase runs the full differential sweep for one case: sequential
// enumeration is the truth; every schedule × recovery mode must visit
// exactly that set. When withFaults is set, an additional sweep runs
// with every float64 root evaluation perturbed beyond correction
// range, proving the exact-search fallback (not the fast path) carries
// the result.
// The fault plan is process-global: RunCase must not run concurrently
// with other fault-injecting code.
func RunCase(c *Case, threads int, withFaults bool) (RunStats, error) {
	var st RunStats
	truth, err := enumerate(c)
	if err != nil {
		return st, err
	}
	st.Cases = 1
	// Compile every recovery mode before any fault plan is active:
	// injection targets run-time recovery, not compile-time root
	// selection (whose sampling also evaluates the roots).
	modes := Modes()
	results := make([]*core.Result, len(modes))
	for i, v := range modes {
		res, err := core.Collapse(c.Nest, c.C, unrank.Options{Mode: v})
		if err != nil {
			return st, fmt.Errorf("%s: collapse at %s: %w", c.Name, v, err)
		}
		results[i] = res
	}
	// One tuner for the whole case: both sweeps share its plan cache, so
	// the fault-injected sweep exercises the cached-decision path.
	tuner := autotune.New(autotune.Options{MaxWorkers: threads})
	sweep := func() error {
		for i, v := range modes {
			res := results[i]
			for _, sched := range Schedules() {
				got, cs, err := runParallel(res, c.Params, threads, sched)
				if err != nil {
					return fmt.Errorf("%s: %v/%s: %w", c.Name, sched.Kind, v, err)
				}
				if err := diffVisitSets(truth, got); err != nil {
					return fmt.Errorf("%s: %v/%s: %w", c.Name, sched.Kind, v, err)
				}
				st.Runs++
				st.Unrank.Add(cs.Stats)

				got, rs, err := runParallelRanges(res, c.Params, threads, sched)
				if err != nil {
					return fmt.Errorf("%s: %v/%s (ranges): %w", c.Name, sched.Kind, v, err)
				}
				if err := diffVisitSets(truth, got); err != nil {
					return fmt.Errorf("%s: %v/%s (ranges): %w", c.Name, sched.Kind, v, err)
				}
				if rs.Iterations != c.Total {
					return fmt.Errorf("%s: %v/%s (ranges): engine covered %d iterations, want %d",
						c.Name, sched.Kind, v, rs.Iterations, c.Total)
				}
				st.Runs++
			}

			// The tuned path (schedule "auto"): the planner picks its own
			// (schedule, chunk, workers) triple, so it runs once per
			// mode rather than once per schedule. The second sweep
			// (fault injection) recalls the plan from the first through
			// the tuner's cache — the cached-decision path is part of the
			// differential surface.
			got, cs, err := runTuned(tuner, res, c.Params)
			if err != nil {
				return fmt.Errorf("%s: auto/%s: %w", c.Name, v, err)
			}
			if err := diffVisitSets(truth, got); err != nil {
				return fmt.Errorf("%s: auto/%s: %w", c.Name, v, err)
			}
			st.Runs++
			st.Unrank.Add(cs.Stats)
		}
		return nil
	}
	if err := sweep(); err != nil {
		return st, err
	}
	if withFaults {
		restore := faults.Activate(faultPlan())
		err := sweep()
		restore()
		if err != nil {
			return st, fmt.Errorf("with injected root faults: %w", err)
		}
	}
	return st, nil
}

// RunSeeds generates and differentially tests one case per seed.
func RunSeeds(seeds []int64, threads int, withFaults bool) (RunStats, error) {
	var st RunStats
	for _, seed := range seeds {
		c, err := NewCase(seed)
		if err != nil {
			return st, err
		}
		cst, err := RunCase(c, threads, withFaults)
		st.Cases += cst.Cases
		st.Runs += cst.Runs
		st.Unrank.Add(cst.Unrank)
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// enumerate returns the sequential visit set in lexicographic order.
func enumerate(c *Case) ([][]int64, error) {
	inst, err := c.Nest.Bind(c.Params)
	if err != nil {
		return nil, err
	}
	var out [][]int64
	inst.Enumerate(func(idx []int64) bool {
		out = append(out, append([]int64(nil), idx...))
		return true
	})
	return out, nil
}

// runParallel executes the collapsed nest and collects the visit set
// (sorted lexicographically) plus the team's recovery statistics.
func runParallel(res *core.Result, params map[string]int64, threads int,
	sched omp.Schedule) ([][]int64, omp.CollapsedStats, error) {
	var mu sync.Mutex
	var got [][]int64
	cs, err := omp.CollapsedForChunkTelemetryCtx(nil, res, params, threads, sched, nil, func(tid int, idx []int64) {
		cp := append([]int64(nil), idx...)
		mu.Lock()
		got = append(got, cp)
		mu.Unlock()
	})
	if err != nil {
		return nil, cs, err
	}
	sort.Slice(got, func(a, b int) bool { return lexLess(got[a], got[b]) })
	return got, cs, nil
}

// runTuned executes the collapsed nest through the autotuned path
// (schedule "auto"): the tuner plans or recalls a (schedule, chunk,
// workers) triple, runs under it, and feeds the measurement back. Only
// the visit set is checked — whatever triple the planner picks must
// cover exactly the sequential iteration set.
func runTuned(tuner *autotune.Tuner, res *core.Result,
	params map[string]int64) ([][]int64, omp.CollapsedStats, error) {
	var mu sync.Mutex
	var got [][]int64
	run, err := tuner.CollapsedFor(context.Background(), res, params, func(tid int, idx []int64) {
		cp := append([]int64(nil), idx...)
		mu.Lock()
		got = append(got, cp)
		mu.Unlock()
	})
	if err != nil {
		return nil, run.Stats, err
	}
	sort.Slice(got, func(a, b int) bool { return lexLess(got[a], got[b]) })
	return got, run.Stats, nil
}

// runParallelRanges executes the collapsed nest through the
// range-batched engine (omp.CollapsedForRanges), expanding each flat
// innermost run back into tuples, and returns the sorted visit set plus
// the engine counters.
func runParallelRanges(res *core.Result, params map[string]int64, threads int,
	sched omp.Schedule) ([][]int64, core.RangeStats, error) {
	var mu sync.Mutex
	var got [][]int64
	rs, err := omp.CollapsedForRangesStats(res, params, threads, sched, nil,
		func(tid int, pc int64, prefix []int64, lo, hi int64) {
			mu.Lock()
			for i := lo; i < hi; i++ {
				got = append(got, append(append([]int64(nil), prefix...), i))
			}
			mu.Unlock()
		})
	if err != nil {
		return nil, rs, err
	}
	sort.Slice(got, func(a, b int) bool { return lexLess(got[a], got[b]) })
	return got, rs, nil
}

func lexLess(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// diffVisitSets compares two lexicographically sorted visit sets
// exactly, reporting the first divergence.
func diffVisitSets(want, got [][]int64) error {
	if len(want) != len(got) {
		return fmt.Errorf("visited %d iterations, want %d", len(got), len(want))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return fmt.Errorf("iteration %d: tuple width %d, want %d", i, len(got[i]), len(want[i]))
		}
		for k := range want[i] {
			if want[i][k] != got[i][k] {
				return fmt.Errorf("iteration %d: visited %v, want %v", i, got[i], want[i])
			}
		}
	}
	return nil
}
