// Package poly implements exact multivariate polynomials over the
// rationals. It is the symbolic substrate underneath the Ehrhart ranking
// machinery of the loop collapser: polynomials support ring arithmetic,
// substitution of polynomials for variables, exact rational and
// floating-point evaluation, univariate views (needed by the radical root
// solvers), and a small expression parser used by tests and the CLI
// tools.
//
// Variables are identified by name at the API surface; internally every
// name is interned to a dense int32 ID and monomials are sorted
// exponent vectors with packed byte-string keys (see intern.go), so the
// ring operations on the compile path never format strings or allocate
// per-monomial maps. Coefficient arithmetic takes an overflow-checked
// int64 fast path when both operands are small integers, which they are
// for almost every intermediate of Faulhaber summation. The previous
// string-keyed map representation is preserved verbatim in
// legacy_test.go as the differential-testing oracle.
//
// A Poly is immutable from the caller's point of view: all operations
// return fresh values.
package poly

import (
	"fmt"
	"math/big"
	"sort"
	"strings"
	"sync"

	"repro/internal/numeric"
)

// term is a single monomial: coeff * prod(var^exp). The exps slice is
// sorted by variable ID and never mutated once the term is stored in a
// Poly (clones share it).
type term struct {
	coeff *big.Rat
	exps  []varExp
}

func (t *term) totalDegree() int {
	d := 0
	for _, ve := range t.exps {
		d += int(ve.exp)
	}
	return d
}

// nameKey renders the monomial in the legacy "x^1*y^2" format (factors
// sorted by variable name). It is used only for deterministic ordering
// in String/Terms/Compile, where the historical name-lexicographic order
// is part of the observable output.
func (t *term) nameKey() string {
	if len(t.exps) == 0 {
		return ""
	}
	names := make([]string, len(t.exps))
	for i, ve := range t.exps {
		names[i] = varNameOf(ve.id)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, v := range names {
		if i > 0 {
			b.WriteByte('*')
		}
		id, _ := varIDIfKnown(v)
		fmt.Fprintf(&b, "%s^%d", v, t.expOf(id))
	}
	return b.String()
}

// expOf returns the exponent of variable id in t (0 if absent).
func (t *term) expOf(id int32) int32 {
	for _, ve := range t.exps {
		if ve.id == id {
			return ve.exp
		}
	}
	return 0
}

// ratPool recycles big.Rat temporaries of the ring operations: the
// multiply/accumulate inner loops need one scratch rational per call, not
// per monomial pair.
var ratPool = sync.Pool{New: func() interface{} { return new(big.Rat) }}

func getRat() *big.Rat  { return ratPool.Get().(*big.Rat) }
func putRat(r *big.Rat) { ratPool.Put(r) }

// mulRatInto sets dst = a*b, taking an overflow-checked int64 fast path
// when both operands are small integers (the overwhelmingly common case
// for Faulhaber/binomial intermediates).
func mulRatInto(dst, a, b *big.Rat) {
	if a.IsInt() && b.IsInt() {
		an, bn := a.Num(), b.Num()
		if an.IsInt64() && bn.IsInt64() {
			if p, ok := numeric.MulInt64(an.Int64(), bn.Int64()); ok {
				dst.SetInt64(p)
				return
			}
		}
	}
	dst.Mul(a, b)
}

// addRatInto sets dst = a+b with the same integer fast path.
func addRatInto(dst, a, b *big.Rat) {
	if a.IsInt() && b.IsInt() {
		an, bn := a.Num(), b.Num()
		if an.IsInt64() && bn.IsInt64() {
			if s, ok := numeric.AddInt64(an.Int64(), bn.Int64()); ok {
				dst.SetInt64(s)
				return
			}
		}
	}
	dst.Add(a, b)
}

// Poly is a multivariate polynomial with exact rational coefficients.
// The zero value is not usable; construct values with Zero, One, Const,
// Int, Var, VarPow or Parse.
type Poly struct {
	terms map[string]*term // packed monomial key -> term
}

// Zero returns the zero polynomial.
func Zero() *Poly { return &Poly{terms: map[string]*term{}} }

// One returns the constant polynomial 1.
func One() *Poly { return Int(1) }

// Int returns the constant polynomial n.
func Int(n int64) *Poly { return Const(new(big.Rat).SetInt64(n)) }

// Rat returns the constant polynomial num/den.
func Rat(num, den int64) *Poly { return Const(big.NewRat(num, den)) }

// Const returns the constant polynomial with value r.
func Const(r *big.Rat) *Poly {
	p := Zero()
	if r.Sign() != 0 {
		p.terms[""] = &term{coeff: new(big.Rat).Set(r)}
	}
	return p
}

// Var returns the polynomial consisting of the single variable name.
func Var(name string) *Poly { return VarPow(name, 1) }

// VarPow returns the polynomial name^k (k >= 0).
func VarPow(name string, k int) *Poly {
	if name == "" {
		panic("poly: empty variable name")
	}
	if k < 0 {
		panic("poly: negative exponent")
	}
	if k == 0 {
		return One()
	}
	exps := []varExp{{id: varID(name), exp: int32(k)}}
	t := &term{coeff: big.NewRat(1, 1), exps: exps}
	return &Poly{terms: map[string]*term{packKey(exps): t}}
}

// clone copies p. Exponent vectors are immutable once stored, so they
// are shared; only the coefficients are duplicated.
func (p *Poly) clone() *Poly {
	q := Zero()
	for k, t := range p.terms {
		q.terms[k] = &term{coeff: new(big.Rat).Set(t.coeff), exps: t.exps}
	}
	return q
}

// addTerm adds coeff*mono into p in place, dropping the monomial if the
// resulting coefficient is zero. The exps slice is copied.
func (p *Poly) addTerm(coeff *big.Rat, exps []varExp) {
	p.addTermKeyed(coeff, exps, packKey(exps), false)
}

// addTermOwned is addTerm for callers handing over ownership of exps
// (freshly built, never reused), skipping the defensive copy.
func (p *Poly) addTermOwned(coeff *big.Rat, exps []varExp) {
	p.addTermKeyed(coeff, exps, packKey(exps), true)
}

func (p *Poly) addTermKeyed(coeff *big.Rat, exps []varExp, key string, owned bool) {
	if coeff.Sign() == 0 {
		return
	}
	if ex, ok := p.terms[key]; ok {
		addRatInto(ex.coeff, ex.coeff, coeff)
		if ex.coeff.Sign() == 0 {
			delete(p.terms, key)
		}
		return
	}
	if !owned {
		exps = append([]varExp(nil), exps...)
	}
	p.terms[key] = &term{coeff: new(big.Rat).Set(coeff), exps: exps}
}

// Add returns p + q.
func (p *Poly) Add(q *Poly) *Poly {
	r := p.clone()
	for k, t := range q.terms {
		r.addTermKeyed(t.coeff, t.exps, k, false)
	}
	return r
}

// Sub returns p - q.
func (p *Poly) Sub(q *Poly) *Poly {
	r := p.clone()
	neg := getRat()
	for k, t := range q.terms {
		neg.Neg(t.coeff)
		r.addTermKeyed(neg, t.exps, k, false)
	}
	putRat(neg)
	return r
}

// Neg returns -p.
func (p *Poly) Neg() *Poly { return Zero().Sub(p) }

// Scale returns r * p.
func (p *Poly) Scale(r *big.Rat) *Poly {
	q := Zero()
	if r.Sign() == 0 {
		return q
	}
	c := getRat()
	for k, t := range p.terms {
		mulRatInto(c, t.coeff, r)
		q.addTermKeyed(c, t.exps, k, false)
	}
	putRat(c)
	return q
}

// ScaleInt returns n * p.
func (p *Poly) ScaleInt(n int64) *Poly { return p.Scale(new(big.Rat).SetInt64(n)) }

// mulExps merges two sorted exponent vectors (a sorted-merge, no maps).
func mulExps(a, b []varExp) []varExp {
	out := make([]varExp, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].id < b[j].id:
			out = append(out, a[i])
			i++
		case a[i].id > b[j].id:
			out = append(out, b[j])
			j++
		default:
			out = append(out, varExp{id: a[i].id, exp: a[i].exp + b[j].exp})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Mul returns p * q.
func (p *Poly) Mul(q *Poly) *Poly {
	r := Zero()
	c := getRat()
	for _, tp := range p.terms {
		for _, tq := range q.terms {
			mulRatInto(c, tp.coeff, tq.coeff)
			r.addTermOwned(c, mulExps(tp.exps, tq.exps))
		}
	}
	putRat(c)
	return r
}

// PowInt returns p raised to the non-negative integer power k.
func (p *Poly) PowInt(k int) *Poly {
	if k < 0 {
		panic("poly: negative exponent")
	}
	result := One()
	base := p
	for k > 0 {
		if k&1 == 1 {
			result = result.Mul(base)
		}
		k >>= 1
		if k > 0 {
			base = base.Mul(base)
		}
	}
	return result
}

// Subst returns the polynomial obtained by substituting polynomial sub
// for every occurrence of variable v in p.
func (p *Poly) Subst(v string, sub *Poly) *Poly {
	vid, known := varIDIfKnown(v)
	if !known {
		return p.clone()
	}
	r := Zero()
	// Cache powers of sub, since several terms often share exponents.
	pows := map[int32]*Poly{0: One(), 1: sub}
	var powOf func(int32) *Poly
	powOf = func(k int32) *Poly {
		if q, ok := pows[k]; ok {
			return q
		}
		q := powOf(k - 1).Mul(sub)
		pows[k] = q
		return q
	}
	for _, t := range p.terms {
		var deg int32
		rest := make([]varExp, 0, len(t.exps))
		for _, ve := range t.exps {
			if ve.id == vid {
				deg = ve.exp
			} else {
				rest = append(rest, ve)
			}
		}
		partial := Zero()
		partial.addTermOwned(t.coeff, rest)
		if deg > 0 {
			partial = partial.Mul(powOf(deg))
		}
		for k, pt := range partial.terms {
			r.addTermKeyed(pt.coeff, pt.exps, k, true)
		}
	}
	return r
}

// SubstAll substitutes several variables simultaneously: all
// substitutions see the original p, so {"x": y, "y": x} swaps x and y.
func (p *Poly) SubstAll(subs map[string]*Poly) *Poly {
	if len(subs) == 0 {
		return p.clone()
	}
	// Rename each substituted variable to a fresh temporary first so that
	// sequential substitution becomes simultaneous.
	tmp := p.clone()
	names := make([]string, 0, len(subs))
	for v := range subs {
		names = append(names, v)
	}
	sort.Strings(names)
	for i, v := range names {
		tmp = tmp.Subst(v, Var(fmt.Sprintf("\x00tmp%d", i)))
	}
	for i, v := range names {
		tmp = tmp.Subst(fmt.Sprintf("\x00tmp%d", i), subs[v])
	}
	return tmp
}

// Rename returns p with variables renamed according to m (names absent
// from m are kept). The renaming is applied simultaneously; renaming two
// distinct variables to the same name merges their monomials.
func (p *Poly) Rename(m map[string]string) *Poly {
	if len(m) == 0 {
		return p.clone()
	}
	idMap := make(map[int32]int32, len(m))
	for from, to := range m {
		if from == to {
			continue
		}
		if fid, ok := varIDIfKnown(from); ok {
			idMap[fid] = varID(to)
		}
	}
	r := Zero()
	for k, t := range p.terms {
		changed := false
		for _, ve := range t.exps {
			if _, ok := idMap[ve.id]; ok {
				changed = true
				break
			}
		}
		if !changed {
			r.addTermKeyed(t.coeff, t.exps, k, false)
			continue
		}
		exps := make([]varExp, len(t.exps))
		for i, ve := range t.exps {
			if nid, ok := idMap[ve.id]; ok {
				ve.id = nid
			}
			exps[i] = ve
		}
		sort.Slice(exps, func(a, b int) bool { return exps[a].id < exps[b].id })
		// Merge duplicates produced by a non-injective rename.
		out := exps[:0]
		for _, ve := range exps {
			if n := len(out); n > 0 && out[n-1].id == ve.id {
				out[n-1].exp += ve.exp
			} else {
				out = append(out, ve)
			}
		}
		r.addTermOwned(t.coeff, out)
	}
	return r
}

// EvalRat evaluates p at the given rational assignment. Every variable of
// p must be present in env.
func (p *Poly) EvalRat(env map[string]*big.Rat) (*big.Rat, error) {
	sum := new(big.Rat)
	tp := new(big.Rat)
	for _, t := range p.terms {
		tp.Set(t.coeff)
		for _, ve := range t.exps {
			val, ok := env[varNameOf(ve.id)]
			if !ok {
				return nil, fmt.Errorf("poly: variable %q not bound", varNameOf(ve.id))
			}
			for i := int32(0); i < ve.exp; i++ {
				tp.Mul(tp, val)
			}
		}
		sum.Add(sum, tp)
	}
	return sum, nil
}

// EvalInt64 evaluates p at an integer assignment, returning the exact
// rational value.
func (p *Poly) EvalInt64(env map[string]int64) (*big.Rat, error) {
	renv := make(map[string]*big.Rat, len(env))
	for k, v := range env {
		renv[k] = new(big.Rat).SetInt64(v)
	}
	return p.EvalRat(renv)
}

// EvalFloat evaluates p at a float64 assignment. Missing variables are an
// error.
func (p *Poly) EvalFloat(env map[string]float64) (float64, error) {
	sum := 0.0
	for _, t := range p.terms {
		tp, _ := t.coeff.Float64()
		for _, ve := range t.exps {
			val, ok := env[varNameOf(ve.id)]
			if !ok {
				return 0, fmt.Errorf("poly: variable %q not bound", varNameOf(ve.id))
			}
			for i := int32(0); i < ve.exp; i++ {
				tp *= val
			}
		}
		sum += tp
	}
	return sum, nil
}

// IsZero reports whether p is the zero polynomial.
func (p *Poly) IsZero() bool { return len(p.terms) == 0 }

// IsConst reports whether p is a constant (possibly zero).
func (p *Poly) IsConst() bool {
	if len(p.terms) == 0 {
		return true
	}
	_, ok := p.terms[""]
	return ok && len(p.terms) == 1
}

// ConstValue returns the value of a constant polynomial.
// It panics if p is not constant.
func (p *Poly) ConstValue() *big.Rat {
	if !p.IsConst() {
		panic("poly: ConstValue of non-constant polynomial")
	}
	if t, ok := p.terms[""]; ok {
		return new(big.Rat).Set(t.coeff)
	}
	return new(big.Rat)
}

// Equal reports whether p and q are identical polynomials.
func (p *Poly) Equal(q *Poly) bool {
	if len(p.terms) != len(q.terms) {
		return false
	}
	for k, t := range p.terms {
		u, ok := q.terms[k]
		if !ok || t.coeff.Cmp(u.coeff) != 0 {
			return false
		}
	}
	return true
}

// Vars returns the sorted list of variables occurring in p.
func (p *Poly) Vars() []string {
	set := map[int32]bool{}
	for _, t := range p.terms {
		for _, ve := range t.exps {
			set[ve.id] = true
		}
	}
	names := make([]string, 0, len(set))
	for id := range set {
		names = append(names, varNameOf(id))
	}
	sort.Strings(names)
	return names
}

// HasVar reports whether variable v occurs in p.
func (p *Poly) HasVar(v string) bool { return p.DegreeIn(v) > 0 }

// DegreeIn returns the degree of p in variable v (0 if absent; 0 for the
// zero polynomial).
func (p *Poly) DegreeIn(v string) int {
	vid, known := varIDIfKnown(v)
	if !known {
		return 0
	}
	d := int32(0)
	for _, t := range p.terms {
		if e := t.expOf(vid); e > d {
			d = e
		}
	}
	return int(d)
}

// MaxVarDegree returns the largest exponent any single variable reaches
// in any monomial of p. This implements the paper's §IV.B degree check.
func (p *Poly) MaxVarDegree() int {
	d := int32(0)
	for _, t := range p.terms {
		for _, ve := range t.exps {
			if ve.exp > d {
				d = ve.exp
			}
		}
	}
	return int(d)
}

// TotalDegree returns the total degree of p (0 for constants and zero).
func (p *Poly) TotalDegree() int {
	d := 0
	for _, t := range p.terms {
		if td := t.totalDegree(); td > d {
			d = td
		}
	}
	return d
}

// UnivariateIn views p as a univariate polynomial in v and returns its
// coefficients, lowest power first. The returned polynomials do not
// contain v. The slice has length DegreeIn(v)+1 (length 1 for the zero
// polynomial).
func (p *Poly) UnivariateIn(v string) []*Poly {
	deg := p.DegreeIn(v)
	coeffs := make([]*Poly, deg+1)
	for i := range coeffs {
		coeffs[i] = Zero()
	}
	vid, known := varIDIfKnown(v)
	for _, t := range p.terms {
		var pw int32
		rest := make([]varExp, 0, len(t.exps))
		for _, ve := range t.exps {
			if known && ve.id == vid {
				pw = ve.exp
			} else {
				rest = append(rest, ve)
			}
		}
		coeffs[pw].addTermOwned(t.coeff, rest)
	}
	return coeffs
}

// Derivative returns dp/dv.
func (p *Poly) Derivative(v string) *Poly {
	r := Zero()
	vid, known := varIDIfKnown(v)
	if !known {
		return r
	}
	c := getRat()
	mul := getRat()
	for _, t := range p.terms {
		pw := t.expOf(vid)
		if pw == 0 {
			continue
		}
		mul.SetInt64(int64(pw))
		mulRatInto(c, t.coeff, mul)
		exps := make([]varExp, 0, len(t.exps))
		for _, ve := range t.exps {
			if ve.id == vid {
				if ve.exp > 1 {
					exps = append(exps, varExp{id: ve.id, exp: ve.exp - 1})
				}
			} else {
				exps = append(exps, ve)
			}
		}
		r.addTermOwned(c, exps)
	}
	putRat(c)
	putRat(mul)
	return r
}

// CommonDenominator returns the least common multiple of the coefficient
// denominators (1 for the zero polynomial). p scaled by this value has
// integer coefficients.
func (p *Poly) CommonDenominator() *big.Int {
	l := big.NewInt(1)
	for _, t := range p.terms {
		d := t.coeff.Denom()
		g := new(big.Int).GCD(nil, nil, l, d)
		l = new(big.Int).Mul(l, new(big.Int).Div(d, g))
	}
	return l
}

// CoeffOf returns the coefficient of the monomial described by exps
// (variable -> exponent; exponents of 0 may be omitted).
func (p *Poly) CoeffOf(exps map[string]int) *big.Rat {
	norm := make([]varExp, 0, len(exps))
	for v, e := range exps {
		if e > 0 {
			norm = append(norm, varExp{id: varID(v), exp: int32(e)})
		}
	}
	sort.Slice(norm, func(a, b int) bool { return norm[a].id < norm[b].id })
	if t, ok := p.terms[packKey(norm)]; ok {
		return new(big.Rat).Set(t.coeff)
	}
	return new(big.Rat)
}

// TermVar is one variable factor of an exported monomial view.
type TermVar struct {
	Name string
	Pow  int
}

// Term is an exported view of one monomial of a polynomial.
type Term struct {
	Coeff *big.Rat  // never zero
	Vars  []TermVar // sorted by variable name; empty for the constant term
}

// Terms returns the monomials of p in the same deterministic order used
// by String: descending total degree, then lexicographic monomial key.
func (p *Poly) Terms() []Term {
	keys := p.sortedKeys()
	out := make([]Term, 0, len(keys))
	for _, k := range keys {
		t := p.terms[k]
		term := Term{Coeff: new(big.Rat).Set(t.coeff)}
		for _, ve := range t.exps {
			term.Vars = append(term.Vars, TermVar{Name: varNameOf(ve.id), Pow: int(ve.exp)})
		}
		sort.Slice(term.Vars, func(a, b int) bool { return term.Vars[a].Name < term.Vars[b].Name })
		out = append(out, term)
	}
	return out
}

// sortedKeys orders the packed term keys by descending total degree,
// then by the legacy name-lexicographic monomial rendering — the
// historical deterministic order of String and Terms.
func (p *Poly) sortedKeys() []string {
	keys := make([]string, 0, len(p.terms))
	nameKeys := make(map[string]string, len(p.terms))
	for k, t := range p.terms {
		keys = append(keys, k)
		nameKeys[k] = t.nameKey()
	}
	sort.Slice(keys, func(a, b int) bool {
		da, db := p.terms[keys[a]].totalDegree(), p.terms[keys[b]].totalDegree()
		if da != db {
			return da > db
		}
		return nameKeys[keys[a]] < nameKeys[keys[b]]
	})
	return keys
}

// String renders p deterministically: monomials sorted by descending
// total degree, then lexicographically by monomial key.
func (p *Poly) String() string {
	if len(p.terms) == 0 {
		return "0"
	}
	keys := p.sortedKeys()
	var b strings.Builder
	for i, k := range keys {
		t := p.terms[k]
		c := t.coeff
		neg := c.Sign() < 0
		abs := new(big.Rat).Abs(c)
		if i == 0 {
			if neg {
				b.WriteByte('-')
			}
		} else {
			if neg {
				b.WriteString(" - ")
			} else {
				b.WriteString(" + ")
			}
		}
		mono := monoString(t)
		one := abs.Cmp(big.NewRat(1, 1)) == 0
		switch {
		case mono == "":
			b.WriteString(ratString(abs))
		case one:
			b.WriteString(mono)
		default:
			b.WriteString(ratString(abs))
			b.WriteByte('*')
			b.WriteString(mono)
		}
	}
	return b.String()
}

func monoString(t *term) string {
	if len(t.exps) == 0 {
		return ""
	}
	names := make([]string, len(t.exps))
	for i, ve := range t.exps {
		names[i] = varNameOf(ve.id)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, v := range names {
		if i > 0 {
			b.WriteByte('*')
		}
		b.WriteString(v)
		id, _ := varIDIfKnown(v)
		if e := t.expOf(id); e > 1 {
			fmt.Fprintf(&b, "^%d", e)
		}
	}
	return b.String()
}

func ratString(r *big.Rat) string {
	if r.IsInt() {
		return r.Num().String()
	}
	return "(" + r.String() + ")"
}
