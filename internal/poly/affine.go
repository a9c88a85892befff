package poly

import "math/big"

// AffineInt64 writes p's coefficients over vars into row, which must
// have length len(vars)+1: row[q] is the coefficient of vars[q] and
// row[len(vars)] the constant term. It reports false, leaving row
// unspecified, when p is not an affine combination of vars with
// integer coefficients that fit int64. No name is rendered: the
// monomials are read through the interned variable IDs.
func (p *Poly) AffineInt64(vars []string, row []int64) bool {
	for q := range row {
		row[q] = 0
	}
	var stack [16]int32
	ids := stack[:0]
	for _, v := range vars {
		id, ok := varIDIfKnown(v)
		if !ok {
			id = -1 // never interned, so no monomial mentions it
		}
		ids = append(ids, id)
	}
	for _, t := range p.terms {
		if !t.coeff.IsInt() || !t.coeff.Num().IsInt64() {
			return false
		}
		c := t.coeff.Num().Int64()
		switch {
		case len(t.exps) == 0:
			row[len(vars)] = c
		case len(t.exps) == 1 && t.exps[0].exp == 1:
			q := 0
			for q < len(ids) && ids[q] != t.exps[0].id {
				q++
			}
			if q == len(ids) {
				return false
			}
			row[q] = c
		default:
			return false
		}
	}
	return true
}

// Affine returns Σ row[q]·vars[q] + row[len(vars)], the inverse of
// AffineInt64.
func Affine(vars []string, row []int64) *Poly {
	p := Zero()
	for q, v := range vars {
		if row[q] != 0 {
			exps := []varExp{{id: varID(v), exp: 1}}
			p.terms[packKey(exps)] = &term{coeff: new(big.Rat).SetInt64(row[q]), exps: exps}
		}
	}
	if c := row[len(vars)]; c != 0 {
		p.terms[""] = &term{coeff: new(big.Rat).SetInt64(c)}
	}
	return p
}
