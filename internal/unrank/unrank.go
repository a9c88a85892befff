// Package unrank inverts ranking Ehrhart polynomials (paper §IV): given
// the rank pc of an iteration in the collapsed 1..Total range, it
// recovers the original loop indices (i_0, …, i_{d-1}).
//
// For each level k < d-1 the index is recovered by evaluating the
// symbolic "convenient root" of
//
//	r(i_0..i_{k-1}, x, lexmin tail) − pc = 0
//
// over complex128 and flooring its real part (§IV.A, §IV.C). Because the
// radical formulas are evaluated in floating point, the floor can be off
// by one near term boundaries; the recovery is therefore followed by an
// exact integer correction step using the monotonicity of the ranking
// polynomial, which makes unranking provably exact. When the closed form
// evaluates to NaN/Inf (degenerate radical branches) or the correction
// does not converge within a few steps, the package falls back to exact
// binary search over the same monotone polynomial — the fallback is also
// available stand-alone as a baseline (ModeBinarySearch).
//
// The last index needs no root: i_{d-1} = lb + (pc − r(prefix, lb)).
package unrank

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ehrhart"
	"repro/internal/faults"
	"repro/internal/nest"
	"repro/internal/poly"
	"repro/internal/roots"
	"repro/internal/telemetry"
)

// Mode selects the recovery strategy.
type Mode int

const (
	// ModeClosedForm uses the paper's radical formulas with exact
	// correction (the contribution under evaluation), falling back to
	// exact binary search per level when the float64 floor cannot be
	// repaired.
	ModeClosedForm Mode = iota
	// ModeBinarySearch uses only exact binary search on the monotone
	// ranking polynomial. It needs no symbolic solving and serves as the
	// correctness oracle and baseline.
	ModeBinarySearch
	// ModeTable uses the precomputed per-level breakpoint tables: each
	// recovery is a pure-integer table lookup plus a short exact
	// correction, with exact binary search as the safety net for levels
	// whose restricted ranking polynomial is not separable (or whose
	// table could not be built). Like ModeBinarySearch it needs no
	// radical solving, so it accepts nests of any degree — it is the
	// fast strategy where closed forms do not exist.
	ModeTable
)

// String names the mode for CLI flags and reports.
func (m Mode) String() string {
	switch m {
	case ModeClosedForm:
		return "closed-form"
	case ModeBinarySearch:
		return "search"
	case ModeTable:
		return "table"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses a CLI spelling of a recovery mode. Unknown spellings
// return an error wrapping faults.ErrUnknownMode so callers can reject
// them with a typed check.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "closed-form", "closedform", "closed":
		return ModeClosedForm, nil
	case "search", "binary-search", "binarysearch":
		return ModeBinarySearch, nil
	case "table", "breakpoint-table":
		return ModeTable, nil
	}
	return 0, fmt.Errorf("unrank: mode %q (want closed-form | search | table): %w",
		s, faults.ErrUnknownMode)
}

// Recovery budgets. The float64 radical's floor is repaired by at most
// MaxCorrection exact ±1 steps before the level falls back to exact
// binary search; root selection enumerates at most MaxEnum iterations
// of each sample binding.
const (
	MaxCorrection = 8
	MaxEnum       = 4096
)

// Numerical tolerances of the float64 fast path. The float64 radical has
// no computed error certificate, so these constants *assume* a radius: a
// radical formula evaluated over complex128 is trusted to land within
// FloorNudge of the exact root absolutely and within RootImagTolRel of
// the real axis relative to its magnitude. The exact correction step
// makes the assumption safe (a violated assumption costs a fallback to
// exact binary search, never a wrong tuple).
const (
	// RootImagTolRel bounds the acceptable imaginary component of a
	// closed-form root relative to its magnitude: |Im x| must be at most
	// RootImagTolRel·(1+|Re x|). Scale-aware: a root near 1e9 may carry
	// a proportionally larger imaginary rounding artifact than one near
	// 1, yet both are "real" for recovery purposes.
	RootImagTolRel = 1e-6
	// FloorNudge is added before flooring the real part so a root
	// computed marginally below an exact integer (x = k − ε from
	// rounding) still floors to k. It must stay well below 1/2 so a
	// genuinely fractional root is never pushed across a boundary.
	FloorNudge = 1e-9
)

// imagNegligible reports whether x is consistent with a real root under
// the float64 path's assumed radius.
func imagNegligible(x complex128) bool {
	return math.Abs(imag(x)) <= RootImagTolRel*(1+math.Abs(real(x)))
}

// floorReal floors the real part under the float64 path's assumed
// radius.
func floorReal(x complex128) int64 {
	return int64(math.Floor(real(x) + FloorNudge))
}

// Options configure Unranker construction.
type Options struct {
	// Mode selects closed-form or binary-search recovery.
	Mode Mode
	// SampleParams are parameter bindings used to select the convenient
	// root by validation against ground truth (a stronger version of the
	// paper's ⌊x(1)⌋ = lexmin test). When nil, small defaults are used.
	SampleParams []map[string]int64
	// TableMaxEntries caps the per-level breakpoint-table size. Levels
	// whose index range fits under the cap get a dense (stride-1) table
	// — recovery is then a pure int64 binary search over the table with
	// zero polynomial evaluations; wider levels get geometrically ramped
	// breakpoints up to a uniform stride, with a short exact in-segment
	// search. Defaults to 4096; clamped to [64, 1<<20] (see Normalized).
	TableMaxEntries int
	// CompileWorkers is ignored: New builds every level and validates
	// every root-selection sample in one serial pass, because a
	// goroutine per level never beat that pass on the measured nests.
	// The field is kept only because the benchmark harness still sets
	// it.
	CompileWorkers int
	// Telemetry, when non-nil, receives "compile"-category spans for the
	// pipeline phases (ranking computation, per-level radical solving,
	// root selection, root compilation). Nil disables instrumentation at
	// no cost.
	Telemetry *telemetry.Registry
}

// Normalized returns o with every defaulted or clamped setting resolved
// to the value New actually uses, so two Options that build the same
// Unranker normalize equal (the collapse cache's key relies on this).
func (o Options) Normalized() Options {
	switch {
	case o.TableMaxEntries <= 0:
		o.TableMaxEntries = 4096
	case o.TableMaxEntries < 64:
		o.TableMaxEntries = 64
	case o.TableMaxEntries > 1<<20:
		o.TableMaxEntries = 1 << 20
	}
	return o
}

// level holds the recovery machinery for one non-final loop level.
type level struct {
	varName    string
	root       roots.Expr       // selected convenient root; nil in binary-search mode
	rootFn     roots.EvalFunc   // compiled root over [params..., i_0..i_{k-1}, pc]
	rootIdx    int              // branch index of the selected root
	candidates []roots.Expr     // all symbolic candidates
	candFns    []roots.EvalFunc // candidates compiled positionally (selection-time)
	rk         *poly.Compiled
	// rk evaluates r(i_0..i_{k-1}, x, lexmin tail) exactly over the
	// variable order [params..., i_0..i_{k-1}, x].

	// gComp is the separable x-part of the restricted ranking
	// polynomial: rk = B(prefix) + g(x) with B = rk|_{x=0} and
	// g = rk − B. When g mentions no prefix iterator the level is
	// "separable" and its inversion can be tabulated once per binding —
	// gComp then evaluates g over [params..., x]. Nil when the level is
	// not separable (the breakpoint table falls back to exact binary
	// search there).
	gComp *poly.Compiled
}

// artifact is the compiled, spelling-independent part of the inverse
// ranking function: everything New builds for one nest. It is immutable
// once built, so any number of Unranker views share it.
type artifact struct {
	base     *nest.Nest // the nest the artifact was compiled from
	ranking  *poly.Poly
	count    *poly.Poly
	mode     Mode
	tableMax int

	order    []string // params..., all indices...
	rankComp *poly.Compiled
	levels   []level        // depth-1 entries
	runStart *poly.Poly     // r(prefix, lb_{d-1}): the rank of a run's first tuple
	lastRank *poly.Compiled // runStart over [params..., i_0..i_{d-2}]
	countC   *poly.Compiled // over params
}

// Unranker is the symbolic (parameter-independent) part of the inverse
// ranking function for a nest: one caller's view of a shared compiled
// artifact. The view holds the caller's spelling of the nest and a
// constant offset per level, index_k = compiled index_k + off[k]; Bind,
// Unrank and Rank speak the caller's coordinates, and the symbolic
// accessors (Ranking, Count, RootExpr, RunStart) re-spell the artifact
// in the caller's names when called. New returns the view of a fresh
// artifact in its own spelling; View derives others from it.
type Unranker struct {
	*artifact
	nest *nest.Nest // the caller's spelling of base
	off  []int64    // nil when every offset is zero
}

// New builds an Unranker for the nest, computing the ranking polynomial,
// solving each level's recovery equation symbolically (in closed-form
// mode) and selecting the convenient root of each level by validation on
// sample parameter bindings.
func New(n *nest.Nest, opts Options) (*Unranker, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	opts = opts.Normalized()
	tel := opts.Telemetry
	spNew := tel.StartSpan("compile", "unrank.New", 0)
	defer spNew.End()
	ranking, count := ehrhart.RankingInstrumented(n, tel)
	if opts.Mode == ModeClosedForm {
		// Only the radical path is degree-limited (no closed-form roots
		// beyond the quartic). Binary search and the breakpoint tables
		// invert the ranking polynomial without solving it, so they
		// accept nests of any degree.
		if err := ehrhart.CheckDegree(ranking); err != nil {
			return nil, err
		}
	}
	a := &artifact{
		base:     n,
		ranking:  ranking,
		count:    count,
		mode:     opts.Mode,
		tableMax: opts.TableMaxEntries,
	}
	a.order = append(append([]string(nil), n.Params...), n.Indices()...)
	spPoly := tel.StartSpan("compile", "poly.Compile", 0)
	var err error
	a.rankComp, err = ranking.Compile(a.order)
	if err != nil {
		return nil, err
	}
	a.countC, err = a.count.Compile(n.Params)
	if err != nil {
		return nil, err
	}
	spPoly.End()

	d := n.Depth()
	a.levels = make([]level, d-1)
	// Per-level construction (§IV per-level independence): the level-k
	// ranking restriction, its exact compilation and the radical solve
	// depend only on the shared ranking polynomial, never on other levels.
	spLevels := tel.StartSpan("compile", "unrank.levels", 0)
	for k := range a.levels {
		if err = a.buildLevel(k, opts); err != nil {
			break
		}
	}
	spLevels.End(telemetry.Arg{Name: "levels", Value: int64(d - 1)})
	if err != nil {
		return nil, err
	}
	// Last level: r(prefix, lexmin of the last index).
	a.runStart = ranking.SubstAll(n.LexMinTail(d - 2)) // substitutes only the last index
	a.lastRank, err = a.runStart.Compile(a.order[:len(n.Params)+d-1])
	if err != nil {
		return nil, err
	}

	if opts.Mode == ModeClosedForm {
		spSel := tel.StartSpan("compile", "unrank.selectRoots", 0)
		err := a.selectRoots(opts)
		spSel.End(telemetry.Arg{Name: "levels", Value: int64(len(a.levels))})
		if err != nil {
			return nil, err
		}
		// The selected root's float64 evaluator was already compiled for
		// selection; drop the other candidates' closures to keep them out
		// of the cache footprint.
		for k := range a.levels {
			lv := &a.levels[k]
			lv.rootFn = lv.candFns[lv.rootIdx]
			lv.candFns = nil
		}
	}
	return &Unranker{artifact: a, nest: n}, nil
}

// View returns u's compiled artifact seen through another spelling: n
// must be the nest the artifact was compiled from with its parameters
// and indices renamed positionally and level k translated by the
// constant off[k] (index_k of n is the compiled index_k plus off[k]),
// which is what equal canonical forms certify (transform.Rebase). off
// may be nil. Nothing is copied or renamed: the view is one allocation.
func (u *Unranker) View(n *nest.Nest, off []int64) *Unranker {
	for _, d := range off {
		if d != 0 {
			return &Unranker{artifact: u.artifact, nest: n, off: off}
		}
	}
	return &Unranker{artifact: u.artifact, nest: n}
}

// tablesEnabled reports whether this unranker's strategy uses the
// breakpoint tables (ModeTable). Tables are built eagerly at Bind time
// only when enabled, so the closed-form path pays nothing and the
// binary-search oracle stays pure.
func (a *artifact) tablesEnabled() bool { return a.mode == ModeTable }

// isParam reports whether v names a parameter of n.
func isParam(n *nest.Nest, v string) bool {
	for _, p := range n.Params {
		if p == v {
			return true
		}
	}
	return false
}

// buildLevel restricts the ranking polynomial to level k, compiles it
// exactly, and in closed-form mode solves and compiles the level's root
// candidates.
func (a *artifact) buildLevel(k int, opts Options) error {
	n, tel := a.base, opts.Telemetry
	lv := &a.levels[k]
	lv.varName = n.Loops[k].Index
	rk := a.ranking.SubstAll(n.LexMinTail(k))
	var err error
	lv.rk, err = rk.Compile(a.order[:len(n.Params)+k+1])
	if err != nil {
		return err
	}
	if a.tablesEnabled() {
		// Separability split for the breakpoint table: rk = B + g with
		// B = rk|_{x=0} (every monomial containing x killed) and g = rk − B
		// carrying the whole x-dependence. The level is tabulable iff g
		// mentions no prefix iterator — then g(x) can be tabulated once per
		// binding, independent of the prefix recovered at run time. The
		// identity rk = B + g holds exactly over ℚ, so table decisions made
		// on g are bit-identical to decisions made on rk.
		g := rk.Sub(rk.Subst(lv.varName, poly.Int(0)))
		separable := true
		for _, v := range g.Vars() {
			if v != lv.varName && !isParam(n, v) {
				separable = false
				break
			}
		}
		if separable {
			gvars := append(append([]string(nil), a.order[:len(n.Params)]...), lv.varName)
			if lv.gComp, err = g.Compile(gvars); err != nil {
				return err
			}
		}
	}
	if opts.Mode == ModeClosedForm {
		eq := rk.Sub(poly.Var("pc"))
		spSolve := tel.StartSpan("compile", "roots.Solve", 0)
		lv.candidates, err = roots.Solve(eq.UnivariateIn(lv.varName))
		spSolve.End(
			telemetry.Arg{Name: "level", Value: int64(k)},
			telemetry.Arg{Name: "candidates", Value: int64(len(lv.candidates))},
		)
		if err != nil {
			return fmt.Errorf("unrank: level %d (%s): %w", k, lv.varName, err)
		}
		tel.Counter("compile.root_candidates").Add(int64(len(lv.candidates)))
		// Compile every candidate positionally up front: root selection
		// evaluates candidates thousands of times per sample, and the
		// compiled closures avoid the symbolic tree walk plus a
		// big.Rat→float64 conversion per constant per evaluation (the
		// dominant cost of the old compile path).
		vars := append(append([]string(nil), a.order[:len(n.Params)+k]...), "pc")
		lv.candFns = make([]roots.EvalFunc, len(lv.candidates))
		for ci, cand := range lv.candidates {
			if lv.candFns[ci], err = roots.Compile(cand, vars); err != nil {
				return err
			}
		}
	}
	return nil
}

// MustNew is New but panics on error.
func MustNew(n *nest.Nest, opts Options) *Unranker {
	u, err := New(n, opts)
	if err != nil {
		panic(err)
	}
	return u
}

// Nest returns the nest in the caller's spelling.
func (u *Unranker) Nest() *nest.Nest { return u.nest }

// Ranking returns the ranking Ehrhart polynomial in the caller's names
// and coordinates.
func (u *Unranker) Ranking() *poly.Poly {
	p := u.spell(u.ranking, false)
	if u.off == nil {
		return p
	}
	shift := make(map[string]*poly.Poly, len(u.off))
	for k, d := range u.off {
		if d != 0 {
			name := u.nest.Loops[k].Index
			shift[name] = poly.Var(name).Sub(poly.Int(d))
		}
	}
	return p.SubstAll(shift)
}

// Count returns the Ehrhart counting polynomial (total iterations) in
// the caller's parameter names.
func (u *Unranker) Count() *poly.Poly { return u.spell(u.count, false) }

// The printed forms below keep the artifact's coordinates: a translated
// index x of offset d is spelled as the parenthesised pseudo-variable
// "(x - d)" rather than substituted and expanded, so emitted code
// evaluates the same float64 arithmetic as the untranslated nest (an
// expanded (x-517)³ cancels catastrophically). Such an expression prints
// correctly as C, Go or math, but Eval cannot bind the pseudo-variable.

// RootExpr returns the selected convenient root of level k (0-based),
// printed form, whose value is the caller's index k minus Offset(k);
// nil for the last level and in binary-search mode.
func (u *Unranker) RootExpr(k int) roots.Expr {
	if k < 0 || k >= len(u.levels) || u.levels[k].root == nil {
		return nil
	}
	return u.spellRoot(u.levels[k].root)
}

// RootCandidates returns all symbolic root candidates of level k,
// printed form.
func (u *Unranker) RootCandidates(k int) []roots.Expr {
	if k < 0 || k >= len(u.levels) {
		return nil
	}
	out := make([]roots.Expr, len(u.levels[k].candidates))
	for ci, c := range u.levels[k].candidates {
		out[ci] = u.spellRoot(c)
	}
	return out
}

// Offset returns the constant that level k of the caller's nest is
// translated by against the compiled artifact: index_k = compiled
// index_k + Offset(k). Zero unless the view is shifted.
func (u *Unranker) Offset(k int) int64 {
	if u.off == nil || k < 0 || k >= len(u.off) {
		return 0
	}
	return u.off[k]
}

// RootIndex returns the branch index of the convenient root of level k.
func (u *Unranker) RootIndex(k int) int {
	if k < 0 || k >= len(u.levels) {
		return -1
	}
	return u.levels[k].rootIdx
}

// RunStart returns r(i_0..i_{d-2}, lb_{d-1}), printed form: the rank of
// the first tuple of the innermost run at a prefix, from which the last
// index is lb_{d-1} + (pc − RunStart) in any coordinates.
func (u *Unranker) RunStart() *poly.Poly { return u.spell(u.runStart, true) }

// spell renames a polynomial over the artifact's variables into the
// caller's names: positionally, and, with printed set, each translated
// index to its "(x - d)" pseudo-variable. Only printing and inspection
// call it; recovery never does.
func (u *Unranker) spell(p *poly.Poly, printed bool) *poly.Poly {
	if u.nest == u.base {
		return p
	}
	return p.Rename(u.names(printed))
}

// names is spell's rename map.
func (u *Unranker) names(printed bool) map[string]string {
	m := make(map[string]string, len(u.order))
	for i, name := range u.base.Params {
		m[name] = u.nest.Params[i]
	}
	for k, l := range u.base.Loops {
		name := u.nest.Loops[k].Index
		if printed && u.off != nil && u.off[k] != 0 {
			name = "(" + poly.Var(name).Sub(poly.Int(u.off[k])).String() + ")"
		}
		m[l.Index] = name
	}
	return m
}

// spellRoot is the printed form of a root expression. Radical formulas
// repeat subexpressions (Cardano's cube root appears twice), so each
// distinct polynomial leaf is renamed once.
func (u *Unranker) spellRoot(e roots.Expr) roots.Expr {
	if u.nest == u.base {
		return e
	}
	m := u.names(true)
	done := map[*poly.Poly]*poly.Poly{}
	return roots.MapPolys(e, func(p *poly.Poly) *poly.Poly {
		q, ok := done[p]
		if !ok {
			q = p.Rename(m)
			done[p] = q
		}
		return q
	})
}

// defaultSamples builds small parameter bindings for root selection:
// every parameter set to 4, 7 and 11, then 3, 2 and 1, which selectRoots
// binds only when none of the first three does.
func (a *artifact) defaultSamples() []map[string]int64 {
	if len(a.base.Params) == 0 {
		return []map[string]int64{{}}
	}
	var out []map[string]int64
	for _, v := range []int64{4, 7, 11, 3, 2, 1} {
		m := map[string]int64{}
		for _, p := range a.base.Params {
			m[p] = v
		}
		out = append(out, m)
	}
	return out
}

// selectRoots picks, per level, the unique candidate whose floored real
// part reproduces the ground-truth index for every iteration of every
// sample binding (paper §IV.A selects by ⌊x(1)⌋ = first index; validating
// over the whole range is strictly stronger and robust to FP noise).
func (a *artifact) selectRoots(opts Options) error {
	samples := opts.SampleParams
	if samples == nil {
		samples = a.defaultSamples()
	}
	np := len(a.base.Params)
	mismatch := make([][]int64, len(a.levels))
	tested := make([]int64, len(a.levels))
	// Level-k candidates evaluate over [params..., i_0..i_{k-1}, pc]
	// through the positional closures compiled in New, so the
	// per-iteration cost is a handful of float64 slots plus one closure
	// call per candidate.
	scratch := make([][]float64, len(a.levels))
	for k := range a.levels {
		mismatch[k] = make([]int64, len(a.levels[k].candidates))
		scratch[k] = make([]float64, np+k+1)
	}
	// A default sample whose bounds overflow int64 is skipped; the
	// overflow is returned only when no sample binds.
	bound := 0
	for i, sp := range samples {
		if i == 3 && bound > 0 && opts.SampleParams == nil {
			break
		}
		inst, err := a.base.Bind(sp)
		if errors.Is(err, faults.ErrOverflow) && opts.SampleParams == nil && (bound > 0 || i < len(samples)-1) {
			continue
		} else if err != nil {
			return fmt.Errorf("unrank: sample binding: %w", err)
		}
		bound++
		for k := range a.levels {
			for pi, p := range a.base.Params {
				scratch[k][pi] = float64(sp[p])
			}
		}
		var pc int64
		inst.Enumerate(func(idx []int64) bool {
			pc++
			if pc > MaxEnum {
				return false
			}
			for k := range a.levels {
				vals := scratch[k]
				for q := 0; q < k; q++ {
					vals[np+q] = float64(idx[q]) // ground-truth prefix
				}
				vals[np+k] = float64(pc)
				truth := idx[k]
				// Only the first iteration of each (prefix, i_k) group has
				// a distinct recovery obligation, but testing every pc
				// exercises the in-between values too.
				for ci, fn := range a.levels[k].candFns {
					x := faults.PerturbRoot(k, fn(vals))
					if !imagNegligible(x) || floorReal(x) != truth {
						mismatch[k][ci]++
					}
				}
				tested[k]++
			}
			return true
		})
	}
	for k := range a.levels {
		if tested[k] == 0 {
			return fmt.Errorf("unrank: no sample iterations available to select root of level %d: %w",
				k, faults.ErrNoConvenientRoot)
		}
		best := -1
		for ci := range a.levels[k].candidates {
			if mismatch[k][ci] == 0 {
				best = ci
				break
			}
		}
		if best < 0 {
			// Tolerate a tiny mismatch fraction (floating-point edge
			// cases); the exact correction step repairs those at run time.
			var minMis int64 = 1 << 62
			for ci, m := range mismatch[k] {
				if m < minMis {
					minMis, best = m, ci
				}
			}
			if minMis*20 > tested[k] {
				return fmt.Errorf("unrank: level %d: best candidate wrong on %d/%d samples: %w",
					k, minMis, tested[k], faults.ErrNoConvenientRoot)
			}
		}
		a.levels[k].root = a.levels[k].candidates[best]
		a.levels[k].rootIdx = best
	}
	return nil
}
