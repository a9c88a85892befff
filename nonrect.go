// Package nonrect is a Go implementation of automatic collapsing of
// non-rectangular loop nests, reproducing Clauss, Altıntaş & Kuhn,
// "Automatic Collapsing of Non-Rectangular Loops" (IPDPS 2017).
//
// Loop collapsing rewrites c perfectly nested parallel loops into a
// single loop pc = 1..Total, which a worksharing runtime can split into
// perfectly balanced contiguous chunks. OpenMP's collapse clause only
// supports rectangular (constant-bound) loops; this library handles any
// nest whose bounds are integer affine combinations of the surrounding
// iterators and size parameters — triangular, tetrahedral, trapezoidal,
// rhomboidal, parallelepiped spaces — by:
//
//  1. computing the ranking Ehrhart polynomial of the nest (the 1-based
//     lexicographic rank of each iteration) by exact symbolic summation;
//  2. inverting it with closed-form radical roots (degrees 1–4, complex
//     intermediates) selected and validated automatically, hardened with
//     an exact integer correction so unranking is always exact;
//  3. executing — or emitting C/Go source for — the collapsed loop with
//     the costly recovery hoisted to once per chunk and cheap
//     lexicographic incrementation in between (§V of the paper), under
//     static, static-chunked, dynamic and guided schedules on a
//     goroutine team. The runtime also skips a chunk's recovery when the
//     worker's previous chunk ended a few innermost runs before it.
//
// # Quick start
//
// Collapse the two triangular loops of the paper's correlation example
// and run the body on 8 goroutines with a static schedule:
//
//	n := nonrect.MustNewNest([]string{"N"},
//		nonrect.L("i", "0", "N-1"),
//		nonrect.L("j", "i+1", "N"),
//	)
//	res, err := nonrect.Collapse(n, 2)
//	if err != nil { ... }
//	err = nonrect.CollapsedFor(res, map[string]int64{"N": 1000}, 8,
//		nonrect.Schedule{Kind: nonrect.Static},
//		func(tid int, idx []int64) {
//			i, j := idx[0], idx[1]
//			_ = i + j // ... body ...
//		})
//
// The deeper machinery is exposed through the result value: the ranking
// polynomial (res.Ranking()), the iteration-count polynomial (res.Total()),
// the symbolic convenient roots (res.Unranker.RootExpr), and exact
// Rank/Unrank queries (res.Unranker.Bind).
//
// The source-to-source tool of the paper lives in cmd/collapsetool; the
// figure-regeneration harness in cmd/benchfig; count, rank and unrank
// queries on ad-hoc nests in cmd/rankq. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for the paper-vs-measured record.
package nonrect

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/autotune"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/ehrhart"
	"repro/internal/faults"
	"repro/internal/nest"
	"repro/internal/omp"
	"repro/internal/poly"
	"repro/internal/reshape"
	"repro/internal/telemetry"
	"repro/internal/transform"
	"repro/internal/unrank"
)

// Typed failure classes of the pipeline and runtime (see internal/faults
// for the full taxonomy). Errors returned by Collapse and the runtime
// entry points wrap these sentinels; test with errors.Is.
var (
	// ErrNonAffine: a loop bound is outside the affine Fig. 5 model.
	ErrNonAffine = faults.ErrNonAffine
	// ErrDegreeTooHigh: the ranking polynomial exceeds radical
	// solvability (degree > 4, §IV.B).
	ErrDegreeTooHigh = faults.ErrDegreeTooHigh
	// ErrOverflow: an exact evaluation exceeds the int64 range.
	ErrOverflow = faults.ErrOverflow
	// ErrNoConvenientRoot: symbolic root selection failed (§IV.A).
	ErrNoConvenientRoot = faults.ErrNoConvenientRoot
	// ErrRecoveryDiverged: index recovery cannot be trusted even after
	// binary-search escalation.
	ErrRecoveryDiverged = faults.ErrRecoveryDiverged
	// ErrCanceled: a context-aware run stopped at a chunk boundary.
	ErrCanceled = faults.ErrCanceled
)

// PanicError is a panic recovered at an API boundary (worker goroutine
// or compile pipeline), carrying the panic value and stack.
type PanicError = faults.PanicError

// AsPanic extracts the *PanicError from an error chain, or nil.
func AsPanic(err error) *PanicError { return faults.AsPanic(err) }

// Collapsible reports whether err is an applicability failure of the
// collapsing technique (non-affine, degree too high, no convenient
// root, overflow) — the class CollapsedForAuto downgrades to an
// uncollapsed parallel loop rather than failing.
func Collapsible(err error) bool { return faults.Collapsible(err) }

// Telemetry is a metrics-and-tracing registry (atomic counters, latency
// histograms, a span/event recorder). Pass one via WithTelemetry to
// observe the compile pipeline and the parallel runtime; see
// internal/telemetry for the report and Chrome-trace exports.
type Telemetry = telemetry.Registry

// NewTelemetry creates an enabled telemetry registry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// CollapsedStats is the per-run runtime record of an instrumented
// collapsed execution: team-wide recovery counters plus the per-thread
// breakdown (chunks, iterations, busy and recovery time).
type CollapsedStats = omp.CollapsedStats

// ThreadStats is one thread's row of CollapsedStats.PerThread.
type ThreadStats = omp.ThreadStats

// Option configures optional behaviour of Collapse and the runtime
// entry points. All options default to off with near-zero overhead.
type Option func(*config)

type config struct {
	tel    *telemetry.Registry
	verify bool
	cache  *core.CollapseCache
}

func buildConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// WithTelemetry attaches a telemetry registry: Collapse/CollapseAt emit
// compile-pipeline phase spans, and the collapsed executors record a
// per-thread chunk timeline plus recovery counters, timed at chunk
// granularity only. A nil registry (or omitting the option) leaves
// every hot path uninstrumented.
func WithTelemetry(t *Telemetry) Option {
	return func(c *config) { c.tel = t }
}

// WithVerify makes every per-chunk index recovery re-rank the recovered
// tuple with exact rational arithmetic and escalate to binary search on
// mismatch (returning ErrRecoveryDiverged if even that disagrees): a
// paranoid mode guaranteeing a collapsed run never silently executes a
// wrong tuple, at the cost of one exact polynomial evaluation per
// recovery. Pass it to Collapse/CollapseAt/CollapsedForAuto.
func WithVerify() Option {
	return func(c *config) { c.verify = true }
}

// CollapseCache memoizes compile outcomes across Collapse calls, keyed
// by the collapsed band's canonical form (see core.Key): its integer
// coefficients once every constant lower bound is rebased to 0 (§IV.A),
// so spellings that differ in their names or in constant translations
// of their loops share an entry. It holds the compiled artifact of a
// shape that collapses, and the applicability error (Collapsible) of
// one that does not, so a failing shape is not compiled again either. Panics and other errors
// are never stored. It is bounded (an exact LRU under one mutex) and
// safe for concurrent use; construct one with NewCollapseCache and
// attach it per call with WithCache.
type CollapseCache = core.CollapseCache

// CacheStats is a snapshot of a CollapseCache's effectiveness counters.
// Entries and Hits include memoized compile failures.
type CacheStats = core.CacheStats

// NewCollapseCache returns a cache holding at most capacity compile
// outcomes; capacity <= 0 selects a small default.
func NewCollapseCache(capacity int) *CollapseCache { return core.NewCollapseCache(capacity) }

// WithCache routes Collapse (and the collapse phase of CollapsedForAuto)
// through cache: a hit — same canonical band and options, whatever the
// parameter/iterator spelling and constant translation — skips the
// symbolic pipeline entirely and returns a view of the cached artifact
// in the caller's names and offsets, or the shape's memoized
// applicability error. Repeated collapses of the same
// nest shape become cheap lookups (CollapsedForAuto's closed-form attempt
// on a shape beyond radicals included); cache.hits /
// cache.misses / cache.evictions counters appear in telemetry when
// WithTelemetry is also given.
func WithCache(cache *CollapseCache) Option {
	return func(c *config) { c.cache = cache }
}

// Nest is a perfect affine loop nest (paper Fig. 5 model).
type Nest = nest.Nest

// Loop is one level of a nest with affine bounds Lower <= idx < Upper.
type Loop = nest.Loop

// Result is a collapsed loop nest: ranking polynomial, total count, and
// the unranking machinery.
type Result = core.Result

// Schedule is an OpenMP-style schedule clause for the runtime.
type Schedule = omp.Schedule

// Schedule kinds (see omp.Kind).
const (
	Static      = omp.Static
	StaticChunk = omp.StaticChunk
	Dynamic     = omp.Dynamic
	Guided      = omp.Guided
	// ScheduleAuto delegates the choice of (schedule, chunk, workers) to
	// the autotuner (see CollapsedForTuned). Passed directly to an
	// untuned entry point it resolves to guided — safe, never optimal.
	ScheduleAuto = omp.ScheduleAuto
)

// Poly is an exact multivariate polynomial over the rationals.
type Poly = poly.Poly

// L builds a loop level from bound expressions; it panics on malformed
// expressions (use nest.Loop literals with poly.Parse for error
// handling).
func L(index, lower, upper string) Loop { return nest.L(index, lower, upper) }

// NewNest builds and validates a nest over the given parameters.
func NewNest(params []string, loops ...Loop) (*Nest, error) { return nest.New(params, loops...) }

// MustNewNest is NewNest but panics on error.
func MustNewNest(params []string, loops ...Loop) *Nest { return nest.MustNew(params, loops...) }

// Collapse builds the collapsed form of the c outermost loops of n: the
// ranking Ehrhart polynomial, its symbolic inverse (with automatically
// selected convenient roots), and the iteration-count polynomial.
// WithTelemetry records per-phase compile spans.
func Collapse(n *Nest, c int, opts ...Option) (*Result, error) {
	cfg := buildConfig(opts)
	return core.CollapseCached(cfg.cache, n, c, unrank.Options{Telemetry: cfg.tel, Verify: cfg.verify})
}

// CollapseBinarySearch is Collapse with the closed-form recovery
// replaced by exact binary search on the ranking polynomial — the
// baseline/oracle mode (no symbolic solving).
func CollapseBinarySearch(n *Nest, c int) (*Result, error) {
	return core.Collapse(n, c, unrank.Options{Mode: unrank.ModeBinarySearch})
}

// CollapseTable is Collapse with the closed-form recovery replaced by
// precomputed per-level breakpoint tables (unrank.ModeTable): recovery
// is an O(log depth) monotone table lookup with an exact short
// correction, bit-identical to binary search but without per-query
// polynomial solving. Like the binary-search oracle it needs no
// symbolic root, so it also covers nests whose ranking degree exceeds
// radical solvability (degree > 4).
func CollapseTable(n *Nest, c int, opts ...Option) (*Result, error) {
	cfg := buildConfig(opts)
	return core.CollapseCached(cfg.cache, n, c,
		unrank.Options{Mode: unrank.ModeTable, Telemetry: cfg.tel, Verify: cfg.verify})
}

// CollapseAt collapses c successive loops starting at level from
// (0-based); the surrounding iterators become symbolic parameters of the
// ranking polynomial, bound per outer iteration via res.Unranker.Bind.
func CollapseAt(n *Nest, from, c int, opts ...Option) (*Result, error) {
	cfg := buildConfig(opts)
	return core.CollapseAt(n, from, c, unrank.Options{Telemetry: cfg.tel, Verify: cfg.verify})
}

// CollapsedFor executes the collapsed iteration space on a goroutine
// team with the §V scheme: at most one recovery per chunk, none when
// the worker's previous chunk ended a few innermost runs earlier. body
// receives the worker id and the original indices (slice reused per
// worker). WithTelemetry instruments the run at chunk granularity (see
// CollapsedForStats); nothing is timed inside a chunk.
func CollapsedFor(res *Result, params map[string]int64, threads int, sched Schedule,
	body func(tid int, idx []int64), opts ...Option) error {
	return CollapsedForCtx(nil, res, params, threads, sched, body, opts...)
}

// CollapsedForCtx is CollapsedFor with cooperative cancellation: ctx is
// checked at every chunk boundary (never mid-chunk), so cancellation
// stops the team promptly without slowing the hot loop. A canceled run
// returns an error wrapping ErrCanceled; a worker panic returns an
// error carrying a *PanicError with the worker's stack.
func CollapsedForCtx(ctx context.Context, res *Result, params map[string]int64, threads int,
	sched Schedule, body func(tid int, idx []int64), opts ...Option) error {
	cfg := buildConfig(opts)
	if cfg.tel == nil {
		return omp.CollapsedForCtx(ctx, res, params, threads, sched, body)
	}
	_, err := omp.CollapsedForChunkTelemetryCtx(ctx, res, params, threads, sched, cfg.tel, body)
	return err
}

// CollapsedForAuto is the self-degrading entry point: it collapses the c
// outermost loops of n and runs the collapsed schedule, but when the
// technique is inapplicable to this nest it degrades gracefully. A
// symbolic-inversion failure (ranking degree above 4, no convenient
// root) first retries in breakpoint-table mode — still collapsed, still
// balanced, counted by the "omp.table_retries" telemetry counter —
// and only a genuinely uncollapsible nest (non-affine bounds, int64
// overflow) falls back to plain parallel worksharing of the outermost
// loop over the original nest: the program still runs, merely without
// the balance guarantee.
// It reports which path executed; a downgrade increments the
// "omp.downgrades" telemetry counter when WithTelemetry is given.
// Errors outside the applicability class (and any runtime error) are
// returned, not downgraded.
func CollapsedForAuto(ctx context.Context, n *Nest, c int, params map[string]int64, threads int,
	sched Schedule, body func(tid int, idx []int64), opts ...Option) (collapsed bool, err error) {
	cfg := buildConfig(opts)
	if c < 1 || c > len(n.Loops) {
		return false, fmt.Errorf("nonrect: collapse depth %d out of range [1,%d]", c, len(n.Loops))
	}
	res, cerr := core.CollapseCached(cfg.cache, n, c, unrank.Options{Telemetry: cfg.tel, Verify: cfg.verify})
	if cerr == nil {
		return true, CollapsedForCtx(ctx, res, params, threads, sched, body, opts...)
	}
	if !faults.Collapsible(cerr) {
		return false, cerr
	}
	// Symbolic inversion failed but the nest may still collapse: the
	// breakpoint-table mode needs no convenient root and accepts any
	// degree, so degree-above-radical and root-selection failures get a
	// second chance before the balance guarantee is surrendered.
	if errors.Is(cerr, faults.ErrDegreeTooHigh) || errors.Is(cerr, faults.ErrNoConvenientRoot) {
		res, terr := core.CollapseCached(cfg.cache, n, c,
			unrank.Options{Mode: unrank.ModeTable, Telemetry: cfg.tel, Verify: cfg.verify})
		if terr == nil {
			if cfg.tel != nil {
				cfg.tel.Counter("omp.table_retries").Inc()
			}
			return true, CollapsedForCtx(ctx, res, params, threads, sched, body, opts...)
		}
		if !faults.Collapsible(terr) {
			return false, terr
		}
	}
	if cfg.tel != nil {
		cfg.tel.Counter("omp.downgrades").Inc()
	}
	// Worksharing the outermost loop needs only the c loops the caller
	// asked to run (bounds of loop k reference levels < k only, so the
	// prefix is self-contained); body still sees idx of length c.
	sub := &nest.Nest{Params: n.Params, Loops: n.Loops[:c]}
	return false, omp.UncollapsedFor(ctx, sub, params, threads, sched, body)
}

// Tuner plans (schedule, chunk, workers) triples for collapsed nests by
// simulation against a measured cost model — see internal/autotune. One
// Tuner should be shared process-wide: it caches plans keyed by nest
// shape × parameter bucket × core count and refines them online from
// observed makespans.
type Tuner = autotune.Tuner

// TunerOptions configure a Tuner: the telemetry registry it counts
// plans on and reads the live recovery histogram from, and the largest
// team it may pick. The zero value works: no telemetry, GOMAXPROCS
// workers.
type TunerOptions = autotune.Options

// TunedRun records one autotuned execution: the plan in effect, whether
// it came from the cache, the measured wall time, and the per-thread
// runtime breakdown.
type TunedRun = autotune.Run

// Decision is a planner-chosen (schedule, chunk, workers) triple with
// its simulated makespan.
type Decision = autotune.Decision

// NewTuner returns a Tuner with opts' defaults filled in.
func NewTuner(opts TunerOptions) *Tuner { return autotune.New(opts) }

// defaultTuner backs CollapsedForTuned when the caller passes nil: one
// shared process-wide planner with default options.
var (
	defaultTunerOnce sync.Once
	defaultTunerVal  *Tuner
)

func defaultTuner() *Tuner {
	defaultTunerOnce.Do(func() { defaultTunerVal = autotune.New(autotune.Options{}) })
	return defaultTunerVal
}

// CollapsedForTuned executes the collapsed space under the tuner's
// chosen (schedule, chunk, workers) triple instead of a caller-picked
// schedule. The first run of a nest shape plans by simulation against
// its measured work vector (cached thereafter); every run feeds its
// observed makespan back, so a plan whose prediction drifts more than
// the configured deviation is re-planned. The visited iteration
// multiset is identical to any static schedule — only scheduling
// differs. A nil tuner uses a shared process-wide default.
func CollapsedForTuned(ctx context.Context, tuner *Tuner, res *Result, params map[string]int64,
	body func(tid int, idx []int64)) (TunedRun, error) {
	if tuner == nil {
		tuner = defaultTuner()
	}
	return tuner.CollapsedFor(ctx, res, params, body)
}

// CollapsedForStats is CollapsedFor returning the per-thread runtime
// breakdown (chunks, iterations, busy and recovery time, unrank
// counters), measured at chunk granularity: each chunk's duration and
// the positioning of its start are timed, the iterations inside it are
// not. Pass WithTelemetry to additionally record the chunk timeline as
// trace events and publish the run's counters.
func CollapsedForStats(res *Result, params map[string]int64, threads int, sched Schedule,
	body func(tid int, idx []int64), opts ...Option) (CollapsedStats, error) {
	cfg := buildConfig(opts)
	return omp.CollapsedForChunkTelemetryCtx(nil, res, params, threads, sched, cfg.tel, body)
}

// RangeStats is the range-batched engine's event record: flat innermost
// runs handed to the body, outer-prefix carries between them (the only
// points where bounds are re-evaluated), and iterations covered.
type RangeStats = core.RangeStats

// CollapsedForRanges executes the collapsed space with the range-batched
// §V engine — the fastest execution path. Each chunk performs one costly
// recovery; the body then receives maximal flat innermost runs:
// body(tid, pc, prefix, lo, hi) covers collapsed ranks pc..pc+(hi-lo)-1
// whose tuples share the outer prefix (levels 0..C-2, slice reused per
// worker) and take every innermost value lo <= i < hi. The caller's
// innermost loop is therefore a plain counted loop with no per-iteration
// runtime calls. WithTelemetry publishes the engine counters
// ("omp.range_batches", "omp.range_carries", "omp.iterations").
func CollapsedForRanges(res *Result, params map[string]int64, threads int, sched Schedule,
	body func(tid int, pc int64, prefix []int64, lo, hi int64), opts ...Option) error {
	cfg := buildConfig(opts)
	if cfg.tel == nil {
		return omp.CollapsedForRanges(res, params, threads, sched, body)
	}
	_, err := omp.CollapsedForRangesStats(res, params, threads, sched, cfg.tel, body)
	return err
}

// CollapsedForSIMD executes the collapsed space with the §VI.A batch
// scheme: body receives up to vlength consecutive index tuples.
func CollapsedForSIMD(res *Result, params map[string]int64, threads, vlength int,
	body func(tid int, batch [][]int64)) error {
	return omp.CollapsedForSIMD(res, params, threads, vlength, body)
}

// CollapsedForWarp executes the collapsed space with the §VI.B GPU-warp
// scheme: W lanes, each running iterations strided by W.
func CollapsedForWarp(res *Result, params map[string]int64, w int,
	body func(lane int, pc int64, idx []int64)) error {
	return omp.CollapsedForWarp(res, params, w, body)
}

// ParallelFor is the plain worksharing loop (the paper's baselines):
// body(tid, i) runs for every i in [lo, hi) under the schedule, on the
// same chunk engine as the collapsed executors at every team size. A
// panic in body re-panics on the caller as a *PanicError. The loop is
// uninstrumented; the collapsed executors carry the chunk telemetry.
func ParallelFor(threads int, lo, hi int64, sched Schedule, body func(tid int, i int64)) {
	omp.ParallelFor(threads, lo, hi, sched, body)
}

// ParallelForCtx is ParallelFor with cooperative cancellation at chunk
// boundaries and worker panics returned as errors carrying *PanicError.
func ParallelForCtx(ctx context.Context, threads int, lo, hi int64, sched Schedule,
	body func(tid int, i int64)) error {
	return omp.ParallelForCtx(ctx, threads, lo, hi, sched, body)
}

// Ranking returns the ranking Ehrhart polynomial of a nest (§III).
func Ranking(n *Nest) *Poly { return ehrhart.Ranking(n) }

// Count returns the iteration-count (Ehrhart) polynomial of a nest.
func Count(n *Nest) *Poly { return ehrhart.Count(n) }

// ParseC parses an OpenMP-annotated C loop nest (the collapsetool front
// end): the pragma's collapse(c) clause selects the loops, free
// identifiers become parameters, and the body is kept as text.
func ParseC(src string) (*cparse.Program, error) { return cparse.Parse(src) }

// CodegenOptions configure source emission; see codegen.Options.
type CodegenOptions = codegen.Options

// Code-generation schemes (see codegen.Scheme).
const (
	SchemePerIteration   = codegen.PerIteration
	SchemeFirstIteration = codegen.FirstIteration
	SchemeChunked        = codegen.Chunked
	SchemeSIMD           = codegen.SIMD
	SchemeWarp           = codegen.Warp
)

// EmitC renders the collapsed nest as C source (paper Figs. 3, 4, 7 and
// the §V/§VI schemes). A result without closed-form roots
// (CollapseTable, CollapseBinarySearch) has none to emit: EmitC and
// EmitGo return an error wrapping ErrNoConvenientRoot.
func EmitC(res *Result, opts CodegenOptions) (string, error) { return codegen.EmitC(res, opts) }

// EmitGo renders the collapsed nest as a compilable serial Go function.
func EmitGo(res *Result, opts CodegenOptions) (string, error) { return codegen.EmitGo(res, opts) }

// GoFile wraps emitted Go functions into a complete source file.
func GoFile(pkg string, funcs ...string) string { return codegen.GoFile(pkg, funcs...) }

// Mapping is a rank-preserving bijection between two equal-cardinality
// iteration spaces (the paper's §IX "computation of a loop nest from
// another loop nest of a different shape" extension).
type Mapping = reshape.Mapping

// Fused concatenates several collapsed spaces into one rank range (the
// §IX "fusion of loop nests of different shapes" extension).
type Fused = reshape.Fused

// NewMapping builds the rank-preserving bijection between two bound
// spaces of equal cardinality. Bind a space with res.Unranker.Bind.
func NewMapping(src, dst *unrank.Bound) (*Mapping, error) { return reshape.NewMapping(src, dst) }

// NewFused concatenates the given bound spaces in order.
func NewFused(parts ...*unrank.Bound) (*Fused, error) { return reshape.NewFused(parts...) }

// Transformed is a nest produced by an affine loop transformation,
// together with the map back to original iteration tuples.
type Transformed = transform.Transformed

// Normalize shifts every loop's lower bound to 0 (the paper's §IV.A
// normal form), substituting through the deeper bounds.
func Normalize(n *Nest) (*Transformed, error) { return transform.Normalize(n) }

// Skew applies the unimodular skewing j' = j + factor·i (level `level`,
// outer loop `wrt`) — the Pluto-style transformation producing the
// rhomboidal and parallelepiped shapes the collapser targets.
func Skew(n *Nest, level, wrt int, factor int64) (*Transformed, error) {
	return transform.Skew(n, level, wrt, factor)
}

// Reverse flips a loop's direction (valid for dependence-free loops).
func Reverse(n *Nest, level int) (*Transformed, error) { return transform.Reverse(n, level) }
