// Package ehrhart computes iteration-count (Ehrhart) polynomials and
// ranking Ehrhart polynomials for loop nests of the Fig. 5 model
// (paper §III).
//
// For nests whose bounds are integer affine combinations of the
// surrounding iterators and parameters, the number of integer points is
// obtained by iterated symbolic summation, with each inner sum evaluated
// in closed form via Faulhaber's formula
//
//	Σ_{x=1}^{n} x^m = (1/(m+1)) Σ_{j=0}^{m} C(m+1, j) B⁺_j n^{m+1-j}
//
// (B⁺ is the Bernoulli sequence with B1 = +1/2). Because the formula is a
// polynomial identity, the bound n may itself be a polynomial in outer
// iterators and parameters, which is exactly what nested affine loops
// produce. This replaces the PolyLib/barvinok machinery used by the paper
// for this model class: no existential divisions occur, so Ehrhart
// quasi-polynomials degenerate to genuine polynomials.
package ehrhart

import (
	"fmt"
	"math/big"
	"sync"

	"repro/internal/faults"
	"repro/internal/nest"
	"repro/internal/numeric"
	"repro/internal/poly"
)

// faulhaberVar is the canonical upper-limit variable of the memoized
// Faulhaber polynomials F_m. The NUL byte keeps it out of every namespace
// a nest can produce (identifiers are validated to be plain names).
const faulhaberVar = "\x00faulhaber"

var (
	faulhaberMu    sync.Mutex
	faulhaberCache []*poly.Poly // F_m(faulhaberVar), index m
)

// faulhaber returns the memoized closed form F_m of Σ_{x=1}^{X} x^m as a
// polynomial in the canonical variable X = faulhaberVar. The returned
// polynomial is shared and must not be mutated (Poly operations are
// persistent, so ordinary use is safe).
func faulhaber(m int) *poly.Poly {
	faulhaberMu.Lock()
	defer faulhaberMu.Unlock()
	for len(faulhaberCache) <= m {
		k := len(faulhaberCache)
		X := poly.Var(faulhaberVar)
		f := poly.Zero()
		for j := 0; j <= k; j++ {
			c := new(big.Rat).SetInt(numeric.Binomial(k+1, j))
			c.Mul(c, numeric.BernoulliPlus(j))
			c.Mul(c, big.NewRat(1, int64(k+1)))
			f = f.Add(X.PowInt(k + 1 - j).Scale(c))
		}
		faulhaberCache = append(faulhaberCache, f)
	}
	return faulhaberCache[m]
}

// SumPower returns the closed form of Σ_{x=1}^{n} x^m with the polynomial
// n substituted for the upper limit. m must be non-negative. The
// canonical F_m is computed once per process and memoized alongside the
// Bernoulli/binomial caches it draws on; each call pays only the
// substitution of n.
func SumPower(m int, n *poly.Poly) *poly.Poly {
	if m < 0 {
		panic("ehrhart: negative power")
	}
	return faulhaber(m).Subst(faulhaberVar, n)
}

// Sum returns the closed form of Σ_{v=lo}^{hi} p, where v is the
// summation variable of p and lo, hi are polynomial limits (inclusive).
// The result no longer contains v (unless lo or hi do). The identity is
// polynomial, hence exact for every integer assignment with
// hi >= lo-1; for hi < lo-1 it extends to the usual signed convention.
func Sum(p *poly.Poly, v string, lo, hi *poly.Poly) *poly.Poly {
	coeffs := p.UnivariateIn(v)
	loM1 := lo.Sub(poly.One())
	result := poly.Zero()
	for m, c := range coeffs {
		if c.IsZero() {
			continue
		}
		s := SumPower(m, hi).Sub(SumPower(m, loM1))
		result = result.Add(c.Mul(s))
	}
	return result
}

// TripCounts returns the family of trip-count polynomials of the nest:
// T[k] is the number of iterations of the sub-nest formed by loops
// k..depth-1, as a polynomial in iterators i_0..i_{k-1} and the
// parameters; T[depth] = 1 and T[0] is the Ehrhart polynomial of the
// whole nest (a polynomial in the parameters alone).
func TripCounts(n *nest.Nest) []*poly.Poly {
	d := n.Depth()
	T := make([]*poly.Poly, d+1)
	T[d] = poly.One()
	for k := d - 1; k >= 0; k-- {
		l := n.Loops[k]
		hi := l.Upper.Sub(poly.One())
		T[k] = Sum(T[k+1], l.Index, l.Lower, hi)
	}
	return T
}

// Count returns the Ehrhart polynomial of the nest: the exact number of
// iterations as a polynomial in the parameters.
func Count(n *nest.Nest) *poly.Poly { return TripCounts(n)[0] }

// Ranking returns the ranking Ehrhart polynomial r(i_0,…,i_{d-1}) of the
// nest (paper §III): the 1-based rank of iteration (i_0,…,i_{d-1}) in
// lexicographic execution order,
//
//	r(t) = 1 + Σ_{m} Σ_{x=l_m}^{i_m - 1} T_{m+1}(i_0..i_{m-1}, x).
//
// r is a bijection from the iteration domain onto 1..Count and is
// monotonically increasing with respect to the lexicographic order of the
// tuples.
func Ranking(n *nest.Nest) *poly.Poly { return rankingFrom(n, TripCounts(n)) }

// rankingFrom builds the ranking polynomial from the nest's trip counts
// T = TripCounts(n), so a caller that also needs Count = T[0] sums once.
func rankingFrom(n *nest.Nest, T []*poly.Poly) *poly.Poly {
	r := poly.One()
	for m := 0; m < n.Depth(); m++ {
		l := n.Loops[m]
		hi := poly.Var(l.Index).Sub(poly.One())
		r = r.Add(Sum(T[m+1], l.Index, l.Lower, hi))
	}
	return r
}

// CheckDegree verifies the paper's §IV.B applicability condition on a
// ranking polynomial: every variable must appear with degree at most 4 in
// every monomial, so that each recovery equation is symbolically solvable
// by radicals.
func CheckDegree(r *poly.Poly) error {
	if d := r.MaxVarDegree(); d > 4 {
		return fmt.Errorf("ehrhart: ranking polynomial has a variable of degree %d > 4; "+
			"more than 4 nested loops depend on a single index (paper §IV.B): %w",
			d, faults.ErrDegreeTooHigh)
	}
	return nil
}
