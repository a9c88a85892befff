// Package core implements the paper's primary contribution: automatic
// collapsing of non-rectangular loop nests (Clauss, Altıntaş, Kuhn,
// "Automatic Collapsing of Non-Rectangular Loops", IPDPS 2017).
//
// Collapse takes a perfect affine loop nest (the Fig. 5 model) and a
// count c of outermost loops to collapse, and produces everything needed
// to run — or generate — the collapsed program:
//
//   - the ranking Ehrhart polynomial r(i_0,…,i_{c-1}) of the collapsed
//     sub-nest and the total iteration count polynomial (the collapsed
//     loop runs pc = 1 .. Total);
//   - the unranking function recovering the original indices from pc,
//     built from symbolic radical roots with exact integer correction;
//   - per-range iteration drivers implementing the §V cost-minimisation
//     scheme (one costly recovery per chunk, then lexicographic
//     incrementation), which the runtime schedules across goroutines.
//
// Parallel execution requires the collapsed loops to carry no dependence,
// as in the paper; the transformation itself preserves lexicographic
// order within each chunk.
package core

import (
	"fmt"
	"math"

	"repro/internal/ehrhart"
	"repro/internal/faults"
	"repro/internal/nest"
	"repro/internal/poly"
	"repro/internal/telemetry"
	"repro/internal/unrank"
)

// Result is a collapsed loop nest.
type Result struct {
	// Nest is the full input nest (depth d).
	Nest *nest.Nest
	// C is the number of outermost loops collapsed (1 <= C <= d).
	C int
	// SubNest is the collapsed sub-nest (the C outermost loops).
	SubNest *nest.Nest
	// Ranking is the ranking Ehrhart polynomial of SubNest.
	Ranking *poly.Poly
	// Total is the iteration-count polynomial of SubNest in the
	// parameters; the collapsed loop header is
	// for (pc = 1; pc <= Total; pc++).
	Total *poly.Poly
	// Unranker recovers (i_0,…,i_{C-1}) from pc.
	Unranker *unrank.Unranker
}

// guard converts a compile-pipeline panic into a *faults.PanicError so
// the public Collapse API never panics on malformed input; provable
// internal invariants still surface, but as inspectable errors with the
// panicking stack attached.
func guard(res **Result, err *error) {
	if r := recover(); r != nil {
		*res = nil
		*err = fmt.Errorf("core: collapse pipeline: %w", faults.Recovered(r))
	}
}

// Collapse builds the collapsed form of the c outermost loops of n.
// opts configures the unranking construction (recovery mode, root
// selection samples).
//
// Failures are typed (see internal/faults): applicability limits wrap
// ErrNonAffine, ErrDegreeTooHigh or ErrNoConvenientRoot; arithmetic
// limits wrap ErrOverflow; an internal panic is captured and returned
// as a *faults.PanicError instead of crashing the caller.
func Collapse(n *nest.Nest, c int, opts unrank.Options) (res *Result, err error) {
	defer guard(&res, &err)
	sp := opts.Telemetry.StartSpan("compile", "core.Collapse", 0)
	defer sp.End(
		telemetry.Arg{Name: "collapse", Value: int64(c)},
		telemetry.Arg{Name: "depth", Value: int64(n.Depth())},
	)
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if c < 1 || c > n.Depth() {
		return nil, fmt.Errorf("core: collapse count %d out of range 1..%d", c, n.Depth())
	}
	sub := &nest.Nest{
		Params: append([]string(nil), n.Params...),
		Loops:  append([]nest.Loop(nil), n.Loops[:c]...),
	}
	if err := sub.Validate(); err != nil {
		return nil, fmt.Errorf("core: collapsed sub-nest invalid: %w", err)
	}
	u, err := unrank.New(sub, opts)
	if err != nil {
		return nil, err
	}
	return &Result{
		Nest:     n,
		C:        c,
		SubNest:  sub,
		Ranking:  u.Ranking(),
		Total:    u.Count(),
		Unranker: u,
	}, nil
}

// MustCollapse is Collapse but panics on error.
func MustCollapse(n *nest.Nest, c int, opts unrank.Options) *Result {
	r, err := Collapse(n, c, opts)
	if err != nil {
		panic(err)
	}
	return r
}

// CollapseAt collapses c successive loops starting at level `from`
// (0-based) — the general form of the paper's §IV.A "collapse c
// successive loops of this nest": the iterators of the loops surrounding
// the collapsed band become additional symbolic parameters of the
// ranking polynomial, exactly like the size parameters. The caller runs
// the outer loops itself and binds each outer iteration's index values
// through Unranker.Bind (together with the size parameters).
//
// The loops deeper than the band stay inside the body, as with Collapse.
func CollapseAt(n *nest.Nest, from, c int, opts unrank.Options) (res *Result, err error) {
	defer guard(&res, &err)
	if from != 0 {
		sp := opts.Telemetry.StartSpan("compile", "core.CollapseAt", 0)
		defer sp.End(
			telemetry.Arg{Name: "from", Value: int64(from)},
			telemetry.Arg{Name: "collapse", Value: int64(c)},
		)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if from < 0 || from >= n.Depth() {
		return nil, fmt.Errorf("core: start level %d out of range 0..%d", from, n.Depth()-1)
	}
	if from == 0 {
		return Collapse(n, c, opts)
	}
	if c < 1 || from+c > n.Depth() {
		return nil, fmt.Errorf("core: band [%d,%d) exceeds depth %d", from, from+c, n.Depth())
	}
	params := append([]string(nil), n.Params...)
	for _, l := range n.Loops[:from] {
		params = append(params, l.Index)
	}
	sub := &nest.Nest{
		Params: params,
		Loops:  append([]nest.Loop(nil), n.Loops[from:from+c]...),
	}
	if err := sub.Validate(); err != nil {
		return nil, fmt.Errorf("core: collapsed band invalid: %w", err)
	}
	// Root selection needs sample values for the outer iterators too.
	// The generic defaults would give iterators the same magnitude as
	// size parameters, often sampling an empty band (e.g. j = i..N with
	// i = N); sample outer iterators near their lower bounds instead.
	if opts.SampleParams == nil {
		for _, size := range []int64{6, 9, 13} {
			for _, ov := range []int64{0, 1, 2} {
				m := make(map[string]int64, len(params))
				for _, p := range n.Params {
					m[p] = size
				}
				for _, l := range n.Loops[:from] {
					m[l.Index] = ov
				}
				opts.SampleParams = append(opts.SampleParams, m)
			}
		}
	}
	u, err := unrank.New(sub, opts)
	if err != nil {
		return nil, err
	}
	return &Result{
		Nest:     n,
		C:        c,
		SubNest:  sub,
		Ranking:  u.Ranking(),
		Total:    u.Count(),
		Unranker: u,
	}, nil
}

// RangeStats counts the range-batched engine's events over one or more
// driver calls: how many flat innermost runs reached the body, how many
// outer-prefix carries (each re-evaluating the changed bounds) were
// needed between them, and the iterations covered. Exposed so the
// overhead experiments and telemetry can show the engine's work instead
// of asserting it.
type RangeStats struct {
	Batches    int64 // flat innermost runs handed to the body
	Carries    int64 // outer-prefix carries between runs (bound re-evals)
	Iterations int64 // collapsed iterations covered
}

// Add accumulates o into s (used to aggregate per-thread stats).
func (s *RangeStats) Add(o RangeStats) {
	s.Batches += o.Batches
	s.Carries += o.Carries
	s.Iterations += o.Iterations
}

// ForRanges executes the collapsed ranks [pcLo, pcHi] with the
// range-batched §V scheme: the costly index recovery runs once, at pcLo,
// and the body receives maximal flat innermost runs instead of single
// iterations. Each call body(pc, prefix, lo, hi) covers collapsed ranks
// pc .. pc+(hi-lo)-1, whose tuples share the outer prefix (levels
// 0..d-2, slice reused across calls) and take every innermost value
// lo <= i < hi. Bounds are re-evaluated only when an outer level
// carries; runs are clipped at pcHi so pc accounting stays exact even
// when a chunk boundary splits a run. st (optional) accumulates engine
// counters.
//
// The bound b must come from r.Unranker.Bind and must not be shared
// across goroutines (clone it per worker instead).
func ForRanges(b *unrank.Bound, pcLo, pcHi int64, st *RangeStats,
	body func(pc int64, prefix []int64, lo, hi int64)) error {
	if pcLo > pcHi {
		return nil
	}
	idx := b.Scratch()
	if err := b.Unrank(pcLo, idx); err != nil {
		return err
	}
	return ForRangesFrom(b, pcLo, pcHi, idx, st, body)
}

// ForRangesFrom is ForRanges with the recovery already paid: start must
// be the exact iteration tuple of rank pcLo. start is read, never
// written (it may be b.Scratch() itself).
func ForRangesFrom(b *unrank.Bound, pcLo, pcHi int64, start []int64, st *RangeStats,
	body func(pc int64, prefix []int64, lo, hi int64)) error {
	if pcLo > pcHi {
		return nil
	}
	idx, err := seed(b, start)
	if err != nil {
		return err
	}
	inst := b.Instance()
	last := inst.Depth() - 1
	pc := pcLo
	for {
		// The start tuple (and NextRun below) is a valid tuple, so the
		// current run is never empty: lo < hi and pc always advances.
		lo := idx[last]
		hi := inst.UpperAt(last, idx)
		if rem := pcHi - pc + 1; hi-lo > rem {
			hi = lo + rem
		}
		body(pc, idx[:last], lo, hi)
		pc += hi - lo
		if st != nil {
			st.Batches++
			st.Iterations += hi - lo
		}
		if pc > pcHi {
			return nil
		}
		if !inst.NextRun(idx) {
			return exhausted(pc, pcHi)
		}
		if st != nil {
			st.Carries++
		}
	}
}

// ForRange executes body for every pc in [pcLo, pcHi] using the §V
// scheme: the costly index recovery runs once, at pcLo, and subsequent
// tuples are produced by lexicographic incrementation, exactly like the
// "first_iteration / Incrementation(Indices)" code the paper generates.
// It is implemented on the range-batched engine: the innermost level
// advances in a flat counted loop, and the per-level carry logic runs
// only when an innermost run ends. The bound b must come from
// r.Unranker.Bind and must not be shared across goroutines.
//
// body receives the collapsed rank pc and the recovered indices (the
// slice is reused across calls and must not be mutated by body).
func ForRange(b *unrank.Bound, pcLo, pcHi int64, body func(pc int64, idx []int64)) error {
	if pcLo > pcHi {
		return nil
	}
	idx := b.Scratch()
	if err := b.Unrank(pcLo, idx); err != nil {
		return err
	}
	return ForRangeFrom(b, pcLo, pcHi, idx, body)
}

// ForRangeFrom is ForRange with the recovery already paid: start must be
// the exact iteration tuple of rank pcLo — typically produced by
// unrank.Bound.RecoverBatch over the chunk/shard starts of a planned
// execution — and the driver goes straight to the §V incrementation.
// start is read, never written (it may be b.Scratch() itself).
func ForRangeFrom(b *unrank.Bound, pcLo, pcHi int64, start []int64,
	body func(pc int64, idx []int64)) error {
	if pcLo > pcHi {
		return nil
	}
	idx, err := seed(b, start)
	if err != nil {
		return err
	}
	inst := b.Instance()
	last := inst.Depth() - 1
	pc := pcLo
	for {
		hi := inst.UpperAt(last, idx)
		if rem := pcHi - pc + 1; hi-idx[last] > rem {
			hi = idx[last] + rem
		}
		for i := idx[last]; i < hi; i++ {
			idx[last] = i
			body(pc, idx)
			pc++
		}
		if pc > pcHi {
			return nil
		}
		if !inst.NextRun(idx) {
			return exhausted(pc, pcHi)
		}
	}
}

// seed copies a recovered start tuple into b's scratch, the slice the
// drivers advance in place.
func seed(b *unrank.Bound, start []int64) ([]int64, error) {
	idx := b.Scratch()
	if len(start) != len(idx) {
		return nil, fmt.Errorf("core: start tuple has length %d, want %d", len(start), len(idx))
	}
	copy(idx, start)
	return idx, nil
}

// exhausted is the drivers' error for an iteration space that ended
// before pcHi: the start tuple or the recovery behind it was wrong.
func exhausted(pc, pcHi int64) error {
	return fmt.Errorf("core: iteration space exhausted at pc=%d before reaching %d: %w",
		pc-1, pcHi, faults.ErrRecoveryDiverged)
}

// ForRangeEvery executes body for every pc in [pcLo, pcHi], performing
// the full closed-form recovery at every iteration (no incrementation).
// This is the maximum-cost variant the paper associates with dynamic
// scheduling (§V: "dynamic scheduling requires indices to be recovered by
// evaluating the roots at each iteration").
func ForRangeEvery(b *unrank.Bound, pcLo, pcHi int64, body func(pc int64, idx []int64)) error {
	if pcHi == math.MaxInt64 {
		// pc <= pcHi can never become false: pc++ would wrap instead.
		return fmt.Errorf("core: pc range upper bound %d would overflow the loop counter: %w",
			pcHi, faults.ErrOverflow)
	}
	idx := b.Scratch()
	for pc := pcLo; pc <= pcHi; pc++ {
		if err := b.Unrank(pc, idx); err != nil {
			return err
		}
		body(pc, idx)
	}
	return nil
}

// CheckTotalMatchesRanking verifies, for a parameter binding, the §III
// consistency identity: the ranking polynomial evaluated at the last
// iteration equals the iteration-count polynomial. Used by tests and the
// CLI tool's self-check.
func (r *Result) CheckTotalMatchesRanking(params map[string]int64) error {
	b, err := r.Unranker.Bind(params)
	if err != nil {
		return err
	}
	inst := b.Instance()
	idx := make([]int64, r.C)
	if !inst.First(idx) {
		if b.Total() != 0 {
			return fmt.Errorf("core: empty space but Total = %d", b.Total())
		}
		return nil
	}
	var last []int64
	inst.Enumerate(func(i []int64) bool {
		last = append(last[:0], i...)
		return true
	})
	if got := b.Rank(last); got != b.Total() {
		return fmt.Errorf("core: rank(last) = %d but Total = %d", got, b.Total())
	}
	return nil
}

// TripCounts exposes the per-level trip-count polynomials of the full
// nest (used by the schedule simulator to compute exact per-iteration
// work without running the kernel).
func (r *Result) TripCounts() []*poly.Poly { return ehrhart.TripCounts(r.Nest) }
