package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/omp"
)

// ---------------------------------------------------------------------
// Overhead suite — the repository's Fig. 7-style engine comparison: for
// every kernel and every schedule, the per-collapsed-iteration cost of
//
//   - the original nest (plain sequential loops, the zero-overhead
//     reference);
//   - the per-iteration §V driver (omp.CollapsedFor: one recovery per
//     chunk, then per-iteration lexicographic incrementation);
//   - the range-batched §V engine (omp.CollapsedForRanges: one recovery
//     per chunk, bounds re-evaluated only on outer carries, innermost
//     level a flat counted loop);
//   - full recovery at every iteration (core.ForRangeEvery, the
//     maximum-cost variant §V associates with dynamic scheduling),
//     measured over a capped window since its per-iteration cost is
//     constant.
//
// Unlike Fig. 9/10 (which reproduce the paper's numbers), this suite
// exists to make the runtime's own engine economics reproducible: it is
// the source of BENCH_PR4.json (`make bench-json`).
// ---------------------------------------------------------------------

// OverheadSched compares the two chunk-scheduled engines under one
// schedule: ns per collapsed iteration of the per-iteration driver and
// of the range-batched engine.
type OverheadSched struct {
	Schedule  string
	PerIterNs float64
	RangesNs  float64
	// Engine counters of the range-batched run: flat runs delivered and
	// the mean flat-run length the body enjoyed.
	Batches    int64
	MeanRunLen float64
	// SpeedupRanges is the median within-round ratio of per-iteration
	// over range-batched time (>1 means the range engine wins).
	SpeedupRanges float64
}

// OverheadRow is one kernel's full comparison.
type OverheadRow struct {
	Kernel     string
	Params     map[string]int64
	Iterations int64 // collapsed total
	// Bound-shape specializer coverage of the bound instance
	// (constant / i+c / a·i+c evaluators vs the generic term loop).
	SpecializedBounds int
	TotalBounds       int
	// OriginalNsPerIter is the sequential original nest, normalized by
	// collapsed iterations (the common denominator of every engine).
	OriginalNsPerIter float64
	// RecoverEveryNsPerIter is the full-recovery-per-iteration engine,
	// measured over min(Iterations, EveryCap) ranks.
	RecoverEveryNsPerIter float64
	// SteadyAllocs is testing.AllocsPerRun of a full warmed
	// core.ForRanges traversal — the steady-state inner loop; 0 means the
	// engine allocates nothing per iteration.
	SteadyAllocs float64
	// RangesOverheadPct is the fastest range-batched schedule vs the
	// original nest: (ranges/original − 1) · 100, from their median
	// within-round ratio.
	RangesOverheadPct float64
	Schedules         []OverheadSched
}

// OverheadReport is the suite's result; Doc is its BENCH_PR4.json
// document.
type OverheadReport struct {
	Threads int
	Quick   bool
	Reps    int
	Kernels []OverheadRow
}

// OverheadOptions configure the suite.
type OverheadOptions struct {
	Quick bool // use small test sizes (CI smoke) instead of bench sizes
	// Threads is the team size driving the chunk-scheduled engines.
	// The default 1 follows the paper's serial overhead protocol
	// (Fig. 10): with one thread, ns/iter is pure control cost, not
	// parallel speedup.
	Threads int
	// Reps is the number of alternated timing rounds (default 3; 1 in
	// Quick mode).
	Reps int
	// MinTime is the minimum accumulated duration per timing sample
	// (default 25ms; 2ms in Quick mode).
	MinTime time.Duration
	// Schedules to sweep (default: static, static chunk 64, dynamic
	// chunk 64 — one recovery per thread, many static chunks, and the
	// dynamic dequeue pattern).
	Schedules []omp.Schedule
	// EveryCap bounds the recover-every window (default 1<<17).
	EveryCap int64
	Verbose  func(format string, args ...interface{})
}

func (o *OverheadOptions) fill() {
	if o.Threads <= 0 {
		o.Threads = 1
	}
	if o.Reps <= 0 {
		o.Reps = 3
		if o.Quick {
			o.Reps = 1
		}
	}
	if o.MinTime <= 0 {
		o.MinTime = 25 * time.Millisecond
		if o.Quick {
			o.MinTime = 2 * time.Millisecond
		}
	}
	if len(o.Schedules) == 0 {
		o.Schedules = []omp.Schedule{
			{Kind: omp.Static},
			{Kind: omp.StaticChunk, Chunk: 64},
			{Kind: omp.Dynamic, Chunk: 64},
		}
	}
	if o.EveryCap <= 0 {
		o.EveryCap = 1 << 17
	}
	if o.Verbose == nil {
		o.Verbose = func(string, ...interface{}) {}
	}
}

// Overhead runs the suite over every kernel.
func Overhead(opts OverheadOptions) (*OverheadReport, error) {
	opts.fill()
	rep := &OverheadReport{Threads: opts.Threads, Quick: opts.Quick, Reps: opts.Reps}
	for _, k := range kernels.All() {
		row, err := overheadKernel(k, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		rep.Kernels = append(rep.Kernels, row)
	}
	return rep, nil
}

func overheadKernel(k *kernels.Kernel, opts OverheadOptions) (OverheadRow, error) {
	p := k.BenchParams
	if opts.Quick {
		p = k.TestParams
	}
	row := OverheadRow{Kernel: k.Name, Params: p}
	inst := k.New(p)
	res, err := buildResult(k)
	if err != nil {
		return row, err
	}
	nestParams := k.NestParams(p)
	b, err := res.Unranker.Bind(nestParams)
	if err != nil {
		return row, err
	}
	total := b.Total()
	if total == 0 {
		return row, fmt.Errorf("empty collapsed space")
	}
	row.Iterations = total
	row.SpecializedBounds, row.TotalBounds = b.Instance().SpecializedBounds()

	// Steady-state allocations of a full warmed range traversal.
	noop := func(pc int64, prefix []int64, lo, hi int64) {}
	if err := core.ForRanges(b, 1, total, nil, noop); err != nil {
		return row, err
	}
	row.SteadyAllocs = testing.AllocsPerRun(1, func() {
		_ = core.ForRanges(b, 1, total, nil, noop)
	})

	// Every engine runs the identical per-iteration body
	// (Instance.RunCollapsed), so differences are pure control overhead.
	// Bodies are timing-idempotent (same operation count every run), so
	// one Reset before timing suffices. The engines are timed in
	// alternation: the original nest, recover-every over a capped window
	// (its per-iteration cost is constant), then per schedule the
	// per-iteration driver and the range-batched engine, whose speedup
	// is judged within a round.
	inst.Reset()
	perIterNs := func(sec float64) float64 { return sec / float64(total) * 1e9 }
	window := min(total, opts.EveryCap)
	prefixScratch := make([][]int64, opts.Threads)
	for t := range prefixScratch {
		prefixScratch[t] = make([]int64, res.C)
	}
	perIterBody := func(tid int, idx []int64) { inst.RunCollapsed(idx) }
	rangeBody := func(tid int, pc int64, prefix []int64, lo, hi int64) {
		idx := prefixScratch[tid]
		copy(idx, prefix)
		for i := lo; i < hi; i++ {
			idx[res.C-1] = i
			inst.RunCollapsed(idx)
		}
	}
	var runErr error
	keep := func(err error) {
		if err != nil && runErr == nil {
			runErr = err
		}
	}
	alts := []func(){
		func() { kernels.RunSeq(inst) },
		func() {
			keep(core.ForRangeEvery(b, 1, window, func(pc int64, idx []int64) { inst.RunCollapsed(idx) }))
		},
	}
	stats := make([]core.RangeStats, len(opts.Schedules))
	for s, sched := range opts.Schedules {
		alts = append(alts,
			func() { keep(omp.CollapsedFor(res, nestParams, opts.Threads, sched, perIterBody)) },
			func() {
				st, err := omp.CollapsedForRangesStats(res, nestParams, opts.Threads, sched, nil, rangeBody)
				keep(err)
				stats[s] = st
			})
	}
	secs := autotune.Alternate(opts.Reps, opts.MinTime, nil, alts...)
	if runErr != nil {
		return row, runErr
	}
	row.OriginalNsPerIter = perIterNs(autotune.Best(secs, 0))
	row.RecoverEveryNsPerIter = autotune.Best(secs, 1) / float64(window) * 1e9

	bestRanges := -1 // alternative index of the fastest range-batched schedule
	for s, sched := range opts.Schedules {
		perIter, ranges := 2+2*s, 3+2*s
		os := OverheadSched{
			Schedule:      schedName(sched),
			PerIterNs:     perIterNs(autotune.Best(secs, perIter)),
			RangesNs:      perIterNs(autotune.Best(secs, ranges)),
			Batches:       stats[s].Batches,
			SpeedupRanges: autotune.MedianRatio(secs, perIter, ranges),
		}
		if stats[s].Batches > 0 {
			os.MeanRunLen = float64(stats[s].Iterations) / float64(stats[s].Batches)
		}
		if bestRanges < 0 || autotune.Best(secs, ranges) < autotune.Best(secs, bestRanges) {
			bestRanges = ranges
		}
		opts.Verbose("%s/%s: original %.2f, per-iter %.2f, ranges %.2f ns/iter (x%.2f, runs avg %.1f)",
			k.Name, os.Schedule, row.OriginalNsPerIter, os.PerIterNs,
			os.RangesNs, os.SpeedupRanges, os.MeanRunLen)
		row.Schedules = append(row.Schedules, os)
	}
	row.RangesOverheadPct = (autotune.MedianRatio(secs, bestRanges, 0) - 1) * 100
	return row, nil
}

// schedName renders a schedule compactly ("static", "static,64",
// "dynamic,64", "guided,8").
func schedName(s omp.Schedule) string {
	name := s.Kind.String()
	name = strings.TrimSuffix(name, ",chunk")
	if s.Chunk > 0 {
		return fmt.Sprintf("%s,%d", name, s.Chunk)
	}
	return name
}

// Rows flattens the report: per kernel, the original-nest and
// recover-every costs, then per schedule both engines' costs and their
// ratio.
func (r *OverheadReport) Rows() []BenchRow {
	var rows []BenchRow
	for _, k := range r.Kernels {
		add := caseRows(&rows, k.Kernel, k.Params)
		add("original_ns_per_iter", Lower, k.OriginalNsPerIter)
		add("recover_every_ns_per_iter", Lower, k.RecoverEveryNsPerIter)
		for _, s := range k.Schedules {
			add("per_iter_ns["+s.Schedule+"]", Lower, s.PerIterNs)
			add("ranges_ns["+s.Schedule+"]", Lower, s.RangesNs)
			add("speedup_ranges["+s.Schedule+"]", Higher, s.SpeedupRanges)
		}
	}
	return rows
}

// Doc is the report as a BENCH_PR4.json document.
func (r *OverheadReport) Doc() BenchDoc {
	return BenchDoc{Suite: "overhead", Rows: r.Rows(),
		Config: config("threads", r.Threads, "quick", r.Quick, "reps", r.Reps)}
}

// RenderOverhead prints the report as an aligned table.
func RenderOverhead(r *OverheadReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overhead suite — ns per collapsed iteration (threads=%d, best of %d alternated rounds)\n",
		r.Threads, r.Reps)
	fmt.Fprintf(&b, "%-18s %-12s %10s %10s %10s %10s %8s %10s\n",
		"kernel", "schedule", "original", "per-iter", "ranges", "rec-every", "speedup", "runlen")
	for _, row := range r.Kernels {
		for i, s := range row.Schedules {
			orig, every := "", ""
			if i == 0 {
				orig = fmt.Sprintf("%10.2f", row.OriginalNsPerIter)
				every = fmt.Sprintf("%10.2f", row.RecoverEveryNsPerIter)
			}
			fmt.Fprintf(&b, "%-18s %-12s %10s %10.2f %10.2f %10s %7.2fx %10.1f\n",
				row.Kernel, s.Schedule, orig, s.PerIterNs, s.RangesNs,
				every, s.SpeedupRanges, s.MeanRunLen)
		}
		fmt.Fprintf(&b, "%-18s %-12s bounds %d/%d specialized; steady-state allocs %.0f; ranges overhead vs original %+.1f%%\n",
			row.Kernel, "", row.SpecializedBounds, row.TotalBounds, row.SteadyAllocs, row.RangesOverheadPct)
	}
	return b.String()
}
