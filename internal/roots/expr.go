// Package roots provides symbolic closed-form roots of univariate
// polynomial equations of degree 1 to 4 whose coefficients are
// multivariate polynomials (in the loop parameters, the outer loop
// indices and the collapsed index pc). This is the role Maxima's solve
// plays in the paper (§IV.A): the returned expressions are radical
// formulas — compositions of polynomial coefficients, arithmetic, and
// rational powers — that can be evaluated numerically over complex128
// (§IV.C requires complex intermediates: a convenient root may pass
// through ℂ even when its final value is real) and pretty-printed as C99
// or Go source.
package roots

import (
	"fmt"
	"math/big"
	"math/cmplx"
	"strings"

	"repro/internal/poly"
)

// Expr is a symbolic expression tree over complex values.
type Expr interface {
	// Eval evaluates the expression with real-valued variable bindings.
	Eval(env map[string]float64) complex128
	// emit renders the expression in the given dialect.
	emit(b *strings.Builder, d dialect)
	// prec returns the operator precedence for parenthesisation.
	prec() int
}

type dialect int

const (
	dialectMath dialect = iota // human-readable: sqrt(x), cbrt(x), x^(1/2)
	dialectC                   // C99 complex: csqrt, cpow, parenthesised
	dialectGo                  // Go: cmplx.Sqrt, cmplx.Pow
)

const (
	precAdd = iota + 1
	precMul
	precUnary
	precPow
	precAtom
)

// Num is a rational constant.
type Num struct{ Val *big.Rat }

// NumInt returns the integer constant n as an expression.
func NumInt(n int64) Expr { return Num{Val: new(big.Rat).SetInt64(n)} }

// NumRat returns the rational constant num/den as an expression.
func NumRat(num, den int64) Expr { return Num{Val: big.NewRat(num, den)} }

func (n Num) Eval(map[string]float64) complex128 {
	f, _ := n.Val.Float64()
	return complex(f, 0)
}
func (n Num) prec() int {
	if n.Val.Sign() < 0 || !n.Val.IsInt() {
		return precMul
	}
	return precAtom
}

// PolyExpr wraps a multivariate polynomial as a leaf.
type PolyExpr struct{ P *poly.Poly }

// P wraps a polynomial as an expression leaf.
func P(p *poly.Poly) Expr { return PolyExpr{P: p} }

func (p PolyExpr) Eval(env map[string]float64) complex128 {
	v, err := p.P.EvalFloat(env)
	if err != nil {
		return cmplx.NaN()
	}
	return complex(v, 0)
}
func (p PolyExpr) prec() int {
	if p.P.IsConst() {
		return Num{Val: p.P.ConstValue()}.prec()
	}
	if len(p.P.Vars()) == 1 && p.P.TotalDegree() == 1 &&
		p.P.CoeffOf(map[string]int{}).Sign() == 0 &&
		p.P.CoeffOf(map[string]int{p.P.Vars()[0]: 1}).Cmp(big.NewRat(1, 1)) == 0 {
		return precAtom // bare variable
	}
	return precAdd
}

// Add is a + b.
type Add struct{ A, B Expr }

func (e Add) Eval(env map[string]float64) complex128 { return e.A.Eval(env) + e.B.Eval(env) }
func (e Add) prec() int                              { return precAdd }

// Sub is a - b.
type Sub struct{ A, B Expr }

func (e Sub) Eval(env map[string]float64) complex128 { return e.A.Eval(env) - e.B.Eval(env) }
func (e Sub) prec() int                              { return precAdd }

// Mul is a * b.
type Mul struct{ A, B Expr }

func (e Mul) Eval(env map[string]float64) complex128 { return e.A.Eval(env) * e.B.Eval(env) }
func (e Mul) prec() int                              { return precMul }

// Div is a / b. Division by zero yields Inf/NaN, which callers detect.
type Div struct{ A, B Expr }

func (e Div) Eval(env map[string]float64) complex128 { return e.A.Eval(env) / e.B.Eval(env) }
func (e Div) prec() int                              { return precMul }

// Neg is -a.
type Neg struct{ A Expr }

func (e Neg) Eval(env map[string]float64) complex128 { return -e.A.Eval(env) }
func (e Neg) prec() int                              { return precUnary }

// Pow is base^(Num/Den) using the principal branch (matching C99 cpow and
// Go cmplx.Pow). Den must be positive.
type Pow struct {
	Base     Expr
	Num, Den int
}

func (e Pow) Eval(env map[string]float64) complex128 {
	b := e.Base.Eval(env)
	if e.Den == 1 {
		// Integer powers evaluated by repeated multiplication for accuracy.
		n := e.Num
		inv := false
		if n < 0 {
			n, inv = -n, true
		}
		r := complex(1, 0)
		for i := 0; i < n; i++ {
			r *= b
		}
		if inv {
			r = 1 / r
		}
		return r
	}
	return cmplx.Pow(b, complex(float64(e.Num)/float64(e.Den), 0))
}
func (e Pow) prec() int { return precPow }

// Sqrt returns the principal square root of a.
func Sqrt(a Expr) Expr { return Pow{Base: a, Num: 1, Den: 2} }

// Cbrt returns the principal complex cube root of a (cpow(a, 1./3)); for
// negative real a this is a complex value, not the real cube root.
func Cbrt(a Expr) Expr { return Pow{Base: a, Num: 1, Den: 3} }

// String renders the expression in human-readable mathematical notation.
func String(e Expr) string {
	var b strings.Builder
	e.emit(&b, dialectMath)
	return b.String()
}

// CString renders the expression as a C99 expression over double complex,
// using csqrt/cpow; variables appear as (double)name casts like the
// paper's generated code (Fig. 7).
func CString(e Expr) string {
	var b strings.Builder
	e.emit(&b, dialectC)
	return b.String()
}

// GoString renders the expression as a Go expression over complex128
// using the math/cmplx package; variables must be in scope as float64.
func GoString(e Expr) string {
	var b strings.Builder
	e.emit(&b, dialectGo)
	return b.String()
}

func emitChild(b *strings.Builder, d dialect, child Expr, parentPrec int) {
	if child.prec() < parentPrec {
		b.WriteByte('(')
		child.emit(b, d)
		b.WriteByte(')')
	} else {
		child.emit(b, d)
	}
}

func (n Num) emit(b *strings.Builder, d dialect) {
	if n.Val.IsInt() {
		b.WriteString(n.Val.Num().String())
		return
	}
	switch d {
	case dialectMath:
		fmt.Fprintf(b, "%s/%s", n.Val.Num(), n.Val.Denom())
	default:
		fmt.Fprintf(b, "%s.0/%s.0", n.Val.Num(), n.Val.Denom())
	}
}

func (p PolyExpr) emit(b *strings.Builder, d dialect) {
	switch d {
	case dialectMath:
		b.WriteString(p.P.String())
	case dialectGo:
		// Go has no implicit float64->complex128 conversion, so leaves
		// mixing with cmplx results must be converted explicitly.
		b.WriteString("complex(")
		b.WriteString(polyToCode(p.P, d))
		b.WriteString(", 0)")
	default:
		// C promotes double to double complex implicitly.
		b.WriteString(polyToCode(p.P, d))
	}
}

// PolyC renders a polynomial as a C expression (float rational
// coefficients, pow-free integer powers).
func PolyC(p *poly.Poly) string { return polyToCode(p, dialectC) }

// PolyInt renders a polynomial as an integer C/Go expression. Rational
// coefficients are handled by rendering (D·p)/D with the common
// denominator D — exact whenever D divides the evaluated numerator, which
// holds for counting and ranking polynomials evaluated on their domain
// (e.g. (N-1)*N/2 in the paper's Fig. 3 header).
func PolyInt(p *poly.Poly) string {
	den := p.CommonDenominator()
	if den.IsInt64() && den.Int64() == 1 {
		return polyToCode(p, dialectC)
	}
	scaled := p.Scale(new(big.Rat).SetFrac(den, big.NewInt(1)))
	return "(" + polyToCode(scaled, dialectC) + ")/" + den.String()
}

// PolyGo renders a polynomial as a Go expression over float64 variables.
func PolyGo(p *poly.Poly) string { return polyToCode(p, dialectGo) }

// polyToCode renders a polynomial as C/Go source with explicit float
// rational coefficients and pow-free integer powers (x*x), matching the
// flavour of the paper's generated code.
func polyToCode(p *poly.Poly, d dialect) string {
	_ = d
	terms := polyTerms(p)
	if len(terms) == 0 {
		return "0"
	}
	var b strings.Builder
	for i, t := range terms {
		c := t.coeff
		neg := c.Sign() < 0
		abs := new(big.Rat).Abs(c)
		if i == 0 {
			if neg {
				b.WriteByte('-')
			}
		} else if neg {
			b.WriteString(" - ")
		} else {
			b.WriteString(" + ")
		}
		var factors []string
		one := abs.Cmp(big.NewRat(1, 1)) == 0
		if !one || len(t.vars) == 0 {
			if abs.IsInt() {
				factors = append(factors, abs.Num().String())
			} else {
				factors = append(factors, fmt.Sprintf("%s.0/%s.0", abs.Num(), abs.Denom()))
			}
		}
		for _, v := range t.vars {
			for k := 0; k < v.pow; k++ {
				factors = append(factors, v.name)
			}
		}
		b.WriteString(strings.Join(factors, "*"))
	}
	return b.String()
}

type codeVar struct {
	name string
	pow  int
}
type codeTerm struct {
	coeff *big.Rat
	vars  []codeVar
}

// polyTerms extracts the deterministic term list of a polynomial (same
// order as Poly.String: descending total degree, then monomial key).
func polyTerms(p *poly.Poly) []codeTerm {
	var out []codeTerm
	for _, t := range p.Terms() {
		ct := codeTerm{coeff: t.Coeff}
		for _, v := range t.Vars {
			ct.vars = append(ct.vars, codeVar{name: v.Name, pow: v.Pow})
		}
		out = append(out, ct)
	}
	return out
}

func (e Add) emit(b *strings.Builder, d dialect) {
	emitChild(b, d, e.A, precAdd)
	b.WriteString(" + ")
	emitChild(b, d, e.B, precAdd+1)
}

func (e Sub) emit(b *strings.Builder, d dialect) {
	emitChild(b, d, e.A, precAdd)
	b.WriteString(" - ")
	emitChild(b, d, e.B, precAdd+1)
}

func (e Mul) emit(b *strings.Builder, d dialect) {
	emitChild(b, d, e.A, precMul)
	b.WriteString("*")
	emitChild(b, d, e.B, precMul)
}

func (e Div) emit(b *strings.Builder, d dialect) {
	emitChild(b, d, e.A, precMul)
	b.WriteString("/")
	emitChild(b, d, e.B, precMul+1)
}

func (e Neg) emit(b *strings.Builder, d dialect) {
	b.WriteString("-")
	emitChild(b, d, e.A, precUnary)
}

func (e Pow) emit(b *strings.Builder, d dialect) {
	switch d {
	case dialectMath:
		switch {
		case e.Num == 1 && e.Den == 2:
			b.WriteString("sqrt(")
			e.Base.emit(b, d)
			b.WriteString(")")
		case e.Num == 1 && e.Den == 3:
			b.WriteString("cbrt(")
			e.Base.emit(b, d)
			b.WriteString(")")
		default:
			emitChild(b, d, e.Base, precPow+1)
			fmt.Fprintf(b, "^(%d/%d)", e.Num, e.Den)
		}
	case dialectC:
		if e.Num == 1 && e.Den == 2 {
			b.WriteString("csqrt(")
			e.Base.emit(b, d)
			b.WriteString(")")
			return
		}
		fmt.Fprintf(b, "cpow(")
		e.Base.emit(b, d)
		fmt.Fprintf(b, ", %d.0/%d.0)", e.Num, e.Den)
	case dialectGo:
		if e.Num == 1 && e.Den == 2 {
			b.WriteString("cmplx.Sqrt(")
			e.Base.emit(b, d)
			b.WriteString(")")
			return
		}
		b.WriteString("cmplx.Pow(")
		e.Base.emit(b, d)
		fmt.Fprintf(b, ", %d.0/%d.0)", e.Num, e.Den)
	}
}

// MapPolys returns e with every polynomial leaf p replaced by f(p); the
// tree shape is kept. Compiled evaluators are positional, so this is
// purely a symbolic-face concern: an unranker view uses it to print a
// shared root expression in its caller's names and coordinates.
func MapPolys(e Expr, f func(*poly.Poly) *poly.Poly) Expr {
	switch v := e.(type) {
	case PolyExpr:
		return PolyExpr{P: f(v.P)}
	case Add:
		return Add{A: MapPolys(v.A, f), B: MapPolys(v.B, f)}
	case Sub:
		return Sub{A: MapPolys(v.A, f), B: MapPolys(v.B, f)}
	case Mul:
		return Mul{A: MapPolys(v.A, f), B: MapPolys(v.B, f)}
	case Div:
		return Div{A: MapPolys(v.A, f), B: MapPolys(v.B, f)}
	case Neg:
		return Neg{A: MapPolys(v.A, f)}
	case Pow:
		return Pow{Base: MapPolys(v.Base, f), Num: v.Num, Den: v.Den}
	}
	return e
}
