// Package nest models the class of loop nests handled by the collapsing
// technique (paper Fig. 5): perfectly nested loops
//
//	for (i1 = l1        ; i1 < u1        ; i1++)
//	  for (i2 = l2(i1)  ; i2 < u2(i1)    ; i2++)
//	    ...
//	      for (ic = lc(i1..ic-1) ; ic < uc(i1..ic-1) ; ic++)
//
// where every bound is an affine combination, with integer coefficients,
// of the surrounding iterators and of integer size parameters. Such
// bounds describe rectangular, triangular, tetrahedral, trapezoidal,
// rhomboidal and parallelepiped iteration spaces.
//
// The package provides validation of the model, binding of parameter
// values, lexicographic enumeration and incrementation of iteration
// tuples (the successor function used by the generated collapsed code),
// and the parametric lexicographic-minimum substitution chain that the
// paper obtains from ISL.
package nest

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/faults"
	"repro/internal/numeric"
	"repro/internal/poly"
)

// Loop is one level of a nest. Bounds follow Fig. 5's half-open
// convention: Lower <= index < Upper.
type Loop struct {
	Index string
	Lower *poly.Poly
	Upper *poly.Poly
}

// L builds a Loop from bound expressions, panicking on parse errors.
// It is a convenience for table literals and tests:
//
//	nest.L("j", "i+1", "N")
func L(index, lower, upper string) Loop {
	return Loop{Index: index, Lower: poly.MustParse(lower), Upper: poly.MustParse(upper)}
}

// Nest is a perfect loop nest over integer parameters.
type Nest struct {
	Params []string
	Loops  []Loop
}

// New builds and validates a nest.
func New(params []string, loops ...Loop) (*Nest, error) {
	n := &Nest{Params: append([]string(nil), params...), Loops: append([]Loop(nil), loops...)}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// MustNew is New but panics on error.
func MustNew(params []string, loops ...Loop) *Nest {
	n, err := New(params, loops...)
	if err != nil {
		panic(err)
	}
	return n
}

// Depth returns the number of loops.
func (n *Nest) Depth() int { return len(n.Loops) }

// Indices returns the iterator names, outermost first.
func (n *Nest) Indices() []string {
	out := make([]string, len(n.Loops))
	for i, l := range n.Loops {
		out[i] = l.Index
	}
	return out
}

// Validate checks the nest against the Fig. 5 model: non-empty, unique
// iterator and parameter names, and bounds that are affine in the
// enclosing iterators and parameters with integer coefficients, referring
// only to names in scope.
func (n *Nest) Validate() error {
	if len(n.Loops) == 0 {
		return fmt.Errorf("nest: empty nest")
	}
	seen := map[string]bool{}
	for _, p := range n.Params {
		if p == "" {
			return fmt.Errorf("nest: empty parameter name")
		}
		if seen[p] {
			return fmt.Errorf("nest: duplicate name %q", p)
		}
		seen[p] = true
	}
	inScope := map[string]bool{}
	for _, p := range n.Params {
		inScope[p] = true
	}
	for k, l := range n.Loops {
		if l.Index == "" {
			return fmt.Errorf("nest: loop %d has empty index name", k)
		}
		if seen[l.Index] {
			return fmt.Errorf("nest: duplicate name %q", l.Index)
		}
		seen[l.Index] = true
		for _, which := range []struct {
			name string
			p    *poly.Poly
		}{{"lower", l.Lower}, {"upper", l.Upper}} {
			if which.p == nil {
				return fmt.Errorf("nest: loop %q has nil %s bound", l.Index, which.name)
			}
			if err := checkAffine(which.p, inScope); err != nil {
				return fmt.Errorf("nest: loop %q %s bound %s: %w", l.Index, which.name, which.p, err)
			}
		}
		inScope[l.Index] = true
	}
	return nil
}

// checkAffine verifies p is an affine combination with integer
// coefficients of the variables in scope. Violations wrap
// faults.ErrNonAffine so callers can classify the applicability failure.
func checkAffine(p *poly.Poly, inScope map[string]bool) error {
	for _, v := range p.Vars() {
		if !inScope[v] {
			return fmt.Errorf("uses %q which is not a parameter or enclosing iterator: %w",
				v, faults.ErrNonAffine)
		}
	}
	if p.TotalDegree() > 1 {
		return fmt.Errorf("not affine (total degree %d): %w", p.TotalDegree(), faults.ErrNonAffine)
	}
	if d := p.CommonDenominator(); d.Int64() != 1 || !d.IsInt64() {
		return fmt.Errorf("has non-integer coefficients (denominator %s): %w",
			p.CommonDenominator(), faults.ErrNonAffine)
	}
	return nil
}

// LexMinTail returns, for each loop deeper than level k (0-based), a
// polynomial expressing that loop's lexicographic-minimum value as a
// function of iterators i_0..i_k and the parameters, obtained by
// transitively substituting lower bounds (the parametric lexmin of the
// paper, computed there with ISL; for the Fig. 5 model the substitution
// chain is exact). The map is keyed by iterator name.
func (n *Nest) LexMinTail(k int) map[string]*poly.Poly {
	subs := map[string]*poly.Poly{}
	for q := k + 1; q < len(n.Loops); q++ {
		lb := n.Loops[q].Lower.SubstAll(subs)
		subs[n.Loops[q].Index] = lb
	}
	return subs
}

// String renders the nest in Fig. 5 style.
func (n *Nest) String() string {
	var b strings.Builder
	if len(n.Params) > 0 {
		fmt.Fprintf(&b, "params %s\n", strings.Join(n.Params, ", "))
	}
	for k, l := range n.Loops {
		b.WriteString(strings.Repeat("  ", k))
		fmt.Fprintf(&b, "for (%s = %s ; %s < %s ; %s++)\n", l.Index, l.Lower, l.Index, l.Upper, l.Index)
	}
	return b.String()
}

// affineFn is a loop bound with the parameter contribution folded into
// the constant at Bind time, leaving only iterator terms. Evaluating a
// bound during lexicographic incrementation is then a handful of integer
// operations — the same cost class as the inline increments of the
// paper's generated C code (§V), which matters because incrementation
// runs once per collapsed iteration.
//
// Bounds are shape-classified at compile time: the Fig. 5 shapes used by
// every kernel in internal/kernels (and the triangular/shifted stress
// generator) only ever produce bounds of the forms c, i_q + c and
// a·i_q + c, which evaluate without the generic term loop. Anything else
// falls back to the loop.
type affineFn struct {
	kind  affKind
	c0    int64
	coeff int64 // affSingle: the coefficient a of a·i_q + c
	level int   // affUnit/affSingle: the tuple slot q of i_q
	terms []affTerm
}

// affKind classifies a compiled bound by shape.
type affKind uint8

const (
	affConst   affKind = iota // c
	affUnit                   // i_q + c (coefficient 1, by far the common case)
	affSingle                 // a·i_q + c
	affGeneric                // anything else: generic term loop
)

type affTerm struct {
	level int // index into the iteration tuple
	coeff int64
}

func (f *affineFn) eval(idx []int64) int64 {
	switch f.kind {
	case affConst:
		return f.c0
	case affUnit:
		return idx[f.level] + f.c0
	case affSingle:
		return f.coeff*idx[f.level] + f.c0
	}
	v := f.c0
	for _, t := range f.terms {
		v += t.coeff * idx[t.level]
	}
	return v
}

// specialize assigns the shape class after the terms are collected.
func (f *affineFn) specialize() {
	switch {
	case len(f.terms) == 0:
		f.kind = affConst
	case len(f.terms) == 1 && f.terms[0].coeff == 1:
		f.kind = affUnit
		f.level = f.terms[0].level
	case len(f.terms) == 1:
		f.kind = affSingle
		f.level = f.terms[0].level
		f.coeff = f.terms[0].coeff
	default:
		f.kind = affGeneric
	}
}

// bindAffine reads the affine bound p over names (the parameters, then
// the iterators) into row, folds the parameter values vals into its
// constant term with checked arithmetic and shape-specializes the
// evaluator. ok is false when a coefficient or the folded constant
// leaves int64.
func bindAffine(p *poly.Poly, names []string, vals, row []int64) (f *affineFn, ok bool) {
	ok = p.AffineInt64(names, row)
	c := row[len(names)]
	for q := 0; ok && q < len(vals); q++ {
		var s int64
		if s, ok = numeric.MulInt64(row[q], vals[q]); ok {
			c, ok = numeric.AddInt64(c, s)
		}
	}
	if !ok {
		return nil, false
	}
	f = &affineFn{c0: c}
	for q := len(vals); q < len(names); q++ {
		if row[q] != 0 {
			f.terms = append(f.terms, affTerm{level: q - len(vals), coeff: row[q]})
		}
	}
	f.specialize()
	return f, true
}

// Instance is a nest bound to concrete parameter values, ready for
// enumeration and incrementation. Bounds are compiled to affine
// evaluators with parameters folded in.
type Instance struct {
	nest   *Nest
	np     int // number of parameters
	lower  []*affineFn
	upper  []*affineFn
	params map[string]int64
}

// Bind fixes the parameter values of the nest. All declared parameters
// must be given; extraneous names are rejected.
func (n *Nest) Bind(params map[string]int64) (*Instance, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if len(params) != len(n.Params) {
		return nil, fmt.Errorf("nest: got %d parameter values, want %d", len(params), len(n.Params))
	}
	inst := &Instance{
		nest:   n,
		np:     len(n.Params),
		params: make(map[string]int64, len(params)),
	}
	vals := make([]int64, len(n.Params))
	for q, p := range n.Params {
		v, ok := params[p]
		if !ok {
			return nil, fmt.Errorf("nest: missing value for parameter %q", p)
		}
		inst.params[p] = v
		vals[q] = v
	}
	names := append(append(make([]string, 0, len(vals)+n.Depth()), n.Params...), n.Indices()...)
	row := make([]int64, len(names)+1)
	for _, l := range n.Loops {
		lo, okLo := bindAffine(l.Lower, names, vals, row)
		hi, okHi := bindAffine(l.Upper, names, vals, row)
		if !okLo || !okHi {
			return nil, fmt.Errorf("nest: bounds of loop %q leave int64 at %v: %w", l.Index, params, faults.ErrOverflow)
		}
		inst.lower = append(inst.lower, lo)
		inst.upper = append(inst.upper, hi)
	}
	return inst, nil
}

// MustBind is Bind but panics on error.
func (n *Nest) MustBind(params map[string]int64) *Instance {
	inst, err := n.Bind(params)
	if err != nil {
		panic(err)
	}
	return inst
}

// Nest returns the underlying nest.
func (inst *Instance) Nest() *Nest { return inst.nest }

// Params returns a copy of the bound parameter values. Hot callers that
// only need a lookup should use ParamValue, which does not allocate.
func (inst *Instance) Params() map[string]int64 {
	out := make(map[string]int64, len(inst.params))
	for k, v := range inst.params {
		out[k] = v
	}
	return out
}

// ParamValue returns the bound value of one parameter without copying
// the whole map (the read-only accessor for hot callers).
func (inst *Instance) ParamValue(name string) (int64, bool) {
	v, ok := inst.params[name]
	return v, ok
}

// NumParams returns the number of bound parameters.
func (inst *Instance) NumParams() int { return inst.np }

// Depth returns the nest depth.
func (inst *Instance) Depth() int { return len(inst.lower) }

// LowerAt evaluates the lower bound of level k (0-based) given the outer
// indices idx[0..k); only those slots of idx are read.
func (inst *Instance) LowerAt(k int, idx []int64) int64 {
	return inst.lower[k].eval(idx)
}

// UpperAt evaluates the (exclusive) upper bound of level k given the
// outer indices idx[0..k).
func (inst *Instance) UpperAt(k int, idx []int64) int64 {
	return inst.upper[k].eval(idx)
}

// BoundsAt evaluates the fused (lower, upper) bound pair of level k
// given the outer indices idx[0..k) — one call instead of two on the
// range-batched hot path, where both bounds are always needed together.
func (inst *Instance) BoundsAt(k int, idx []int64) (lo, hi int64) {
	return inst.lower[k].eval(idx), inst.upper[k].eval(idx)
}

// Translate returns the instance in the coordinates i'_k = i_k − off[k]:
// level k's bounds become lower_k(i' + off) − off[k] and likewise for
// upper, folded into each bound's constant with checked arithmetic. ok
// is false when a folded constant leaves int64. The translate shares
// the nest and parameters; it is as cheap as copying the bounds.
func (inst *Instance) Translate(off []int64) (*Instance, bool) {
	out := *inst
	out.lower = make([]*affineFn, len(inst.lower))
	out.upper = make([]*affineFn, len(inst.upper))
	for k := range inst.lower {
		for _, fs := range [2][2][]*affineFn{{inst.lower, out.lower}, {inst.upper, out.upper}} {
			f := *fs[0][k]
			c, ok := numeric.AddInt64(f.c0, -off[k])
			for _, t := range f.terms {
				s, okM := numeric.MulInt64(t.coeff, off[t.level])
				if ok = ok && okM; ok {
					c, ok = numeric.AddInt64(c, s)
				}
			}
			if !ok || off[k] == math.MinInt64 {
				return nil, false
			}
			f.c0 = c
			fs[1][k] = &f
		}
	}
	return &out, true
}

// Extent returns, per level, an interval [lo[k], hi[k]] holding every
// value that level's lower and upper bounds take while each outer index
// ranges over its own level's interval — a box over-approximation of
// the iteration space that contains every index value too. ok is false
// when the interval arithmetic leaves int64.
func (inst *Instance) Extent() (lo, hi []int64, ok bool) {
	d := inst.Depth()
	lo, hi = make([]int64, d), make([]int64, d)
	for k := 0; k < d; k++ {
		l0, l1, ok0 := inst.lower[k].interval(lo, hi)
		u0, u1, ok1 := inst.upper[k].interval(lo, hi)
		if !ok0 || !ok1 {
			return nil, nil, false
		}
		lo[k], hi[k] = min(l0, u0), max(l1, u1)
	}
	return lo, hi, true
}

// interval bounds f over the box where each index slot q ranges over
// [lo[q], hi[q]], with checked arithmetic.
func (f *affineFn) interval(lo, hi []int64) (fmin, fmax int64, ok bool) {
	fmin, fmax = f.c0, f.c0
	for _, t := range f.terms {
		a, okA := numeric.MulInt64(t.coeff, lo[t.level])
		b, okB := numeric.MulInt64(t.coeff, hi[t.level])
		if !okA || !okB {
			return 0, 0, false
		}
		if fmin, ok = numeric.AddInt64(fmin, min(a, b)); !ok {
			return 0, 0, false
		}
		if fmax, ok = numeric.AddInt64(fmax, max(a, b)); !ok {
			return 0, 0, false
		}
	}
	return fmin, fmax, true
}

// SpecializedBounds reports how many of the instance's 2·depth compiled
// bounds evaluate through a shape-specialized fast path (constant,
// i_q + c, or a·i_q + c) rather than the generic term loop. Exposed for
// tests and the overhead benchmarks.
func (inst *Instance) SpecializedBounds() (specialized, total int) {
	for _, fns := range [2][]*affineFn{inst.lower, inst.upper} {
		for _, f := range fns {
			total++
			if f.kind != affGeneric {
				specialized++
			}
		}
	}
	return specialized, total
}

// forceGenericBounds downgrades every compiled bound to the generic
// term-loop evaluator. Benchmark-only: it quantifies what the shape
// specializer buys.
func (inst *Instance) forceGenericBounds() {
	// specialize() classifies without discarding the term list, so the
	// generic evaluator remains exact for every shape.
	for _, fns := range [2][]*affineFn{inst.lower, inst.upper} {
		for _, f := range fns {
			f.kind = affGeneric
		}
	}
}

// First writes the lexicographically first iteration tuple into idx and
// reports whether the iteration space is non-empty. idx must have length
// Depth().
func (inst *Instance) First(idx []int64) bool {
	return inst.fill(idx, 0)
}

// fill sets levels q.. to their first valid values given idx[0..q).
func (inst *Instance) fill(idx []int64, q int) bool {
	if q == inst.Depth() {
		return true
	}
	idx[q] = inst.LowerAt(q, idx) - 1
	return inst.advance(idx, q)
}

// advance increments idx[k] until a complete valid suffix exists, or the
// level is exhausted.
func (inst *Instance) advance(idx []int64, k int) bool {
	for {
		idx[k]++
		if idx[k] >= inst.UpperAt(k, idx) {
			return false
		}
		if inst.fill(idx, k+1) {
			return true
		}
	}
}

// Increment advances idx to the lexicographic successor iteration,
// reporting false when the space is exhausted. This mirrors the
// "Incrementation(Indices)" step of the generated collapsed code (§V).
func (inst *Instance) Increment(idx []int64) bool {
	for k := inst.Depth() - 1; k >= 0; k-- {
		if inst.advance(idx, k) {
			return true
		}
	}
	return false
}

// NextRun carries idx past the current innermost run: it advances the
// outer prefix idx[0..d-2] to the lexicographically next prefix whose
// innermost loop is non-empty and sets idx[d-1] to that run's lower
// bound, reporting false when no such prefix remains. This is the only
// incrementation the range-batched §V engine performs — everything
// between carries is a flat counted loop over the innermost level, whose
// bounds cannot change while the prefix is fixed. Depth-1 nests are a
// single run, so NextRun is always false for them.
func (inst *Instance) NextRun(idx []int64) bool {
	for k := inst.Depth() - 2; k >= 0; k-- {
		if inst.advance(idx, k) {
			return true
		}
	}
	return false
}

// Skip advances the valid tuple idx by n lexicographic successors,
// reporting false when the iteration space ends first or when getting
// there would take more than maxCarries NextRun carries (idx is then
// unspecified). Within a run the innermost index moves by n at once,
// so the cost is one bound evaluation per carry however far n reaches.
// The collapsed engine uses it to reach a chunk's first tuple from the
// worker's previous one instead of recovering it from its rank.
func (inst *Instance) Skip(idx []int64, n int64, maxCarries int) bool {
	last := inst.Depth() - 1
	for carries := 0; ; carries++ {
		room := inst.UpperAt(last, idx) - 1 - idx[last] // successors left in this run
		if n <= room {
			idx[last] += n
			return true
		}
		if carries == maxCarries || !inst.NextRun(idx) {
			return false
		}
		n -= room + 1
	}
}

// Enumerate calls f for every iteration tuple in lexicographic order.
// Enumeration stops early if f returns false. The slice passed to f is
// reused across calls.
func (inst *Instance) Enumerate(f func(idx []int64) bool) {
	inst.EnumerateScratch(make([]int64, inst.Depth()), f)
}

// EnumerateScratch is Enumerate with a caller-provided tuple buffer
// (length Depth), so repeated enumerations — per chunk, per measurement
// rep — reuse one allocation. The same slice is passed to f each call.
func (inst *Instance) EnumerateScratch(idx []int64, f func(idx []int64) bool) {
	if !inst.First(idx) {
		return
	}
	for {
		if !f(idx) {
			return
		}
		if !inst.Increment(idx) {
			return
		}
	}
}

// Count returns the number of iterations by brute-force enumeration.
// It is the test oracle for the Ehrhart counting polynomial.
func (inst *Instance) Count() int64 {
	var c int64
	inst.Enumerate(func([]int64) bool { c++; return true })
	return c
}

// Contains reports whether idx is a point of the iteration space.
func (inst *Instance) Contains(idx []int64) bool {
	if len(idx) != inst.Depth() {
		return false
	}
	for k := range idx {
		if idx[k] < inst.LowerAt(k, idx) || idx[k] >= inst.UpperAt(k, idx) {
			return false
		}
	}
	return true
}

// CheckRegular verifies that no reachable loop has a negative trip count
// (upper < lower), the regularity condition under which trip-count and
// ranking polynomials are exact. Zero-trip loops are permitted. The check
// enumerates prefixes, so it is intended for tests and tool-time
// validation, not hot paths.
func (inst *Instance) CheckRegular() error {
	var walk func(idx []int64, k int) error
	idx := make([]int64, inst.Depth())
	walk = func(idx []int64, k int) error {
		if k == inst.Depth() {
			return nil
		}
		lo, hi := inst.LowerAt(k, idx), inst.UpperAt(k, idx)
		if hi < lo {
			return fmt.Errorf("nest: loop %q has negative trip count (%d..%d) at prefix %v",
				inst.nest.Loops[k].Index, lo, hi, idx[:k])
		}
		for v := lo; v < hi; v++ {
			idx[k] = v
			if err := walk(idx, k+1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(idx, 0)
}
