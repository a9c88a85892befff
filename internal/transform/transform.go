// Package transform provides exact affine loop transformations on the
// Fig. 5 nest model — the role Pluto plays in the paper's pipeline
// (§VII: "we applied our tool to collapse loops that have previously
// been transformed into non-rectangular loops by ... Pluto"). The
// transformations here are unimodular changes of the iteration vector,
// so they preserve the number of points and map bounds to affine bounds:
//
//   - Normalize shifts every loop's lower bound to 0 (the paper's
//     "without loss of generality, assume every loop's lower bound is
//     equal to 0" — §IV.A);
//   - Rebase is its pure-translation part: it shifts only constant
//     lower bounds to 0 and returns the canonical integer form the
//     collapse pipeline compiles and keys its caches on;
//   - Skew replaces a loop index j by j' = j + f·i for an outer index i
//     (producing the rhomboidal/parallelepiped shapes of the abstract);
//   - Reverse flips a loop's direction.
//
// Each transformation returns the new nest together with a Map that
// converts transformed iteration tuples back to original ones, so a
// collapsed transformed nest still executes the original statement
// instances.
package transform

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/nest"
	"repro/internal/numeric"
	"repro/internal/poly"
)

// Map converts an iteration tuple of the transformed nest into the
// corresponding tuple of the original nest (in place into dst; src and
// dst may alias).
type Map func(src, dst []int64)

// Identity returns the identity map for a given depth.
func Identity(depth int) Map {
	return func(src, dst []int64) {
		copy(dst[:depth], src[:depth])
	}
}

// Compose returns the map applying first, then second (i.e. second ∘
// first when reading tuples through the chain of transformations:
// transformed -> intermediate -> original).
func Compose(first, second Map) Map {
	return func(src, dst []int64) {
		first(src, dst)
		second(dst, dst)
	}
}

// Transformed couples a transformed nest with the per-binding recovery
// of original indices.
type Transformed struct {
	// Nest is the transformed nest.
	Nest *nest.Nest
	// offsets[k] (in new outer indices and parameters) and signs[k]
	// reconstruct original_k = signs[k]*new_k + offsets[k].
	offsets []*poly.Poly
	signs   []int64
	src     *nest.Nest
}

// Source returns the original nest.
func (tr *Transformed) Source() *nest.Nest { return tr.src }

// BindMap resolves the tuple map for concrete parameter values. The
// returned Map reuses an internal buffer and is not safe for concurrent
// use — build one per goroutine.
func (tr *Transformed) BindMap(params map[string]int64) (Map, error) {
	depth := len(tr.offsets)
	order := append(append([]string(nil), tr.Nest.Params...), tr.Nest.Indices()...)
	comps := make([]*poly.Compiled, depth)
	for k, off := range tr.offsets {
		c, err := off.Compile(order[:len(tr.Nest.Params)+k])
		if err != nil {
			return nil, err
		}
		comps[k] = c
	}
	np := len(tr.Nest.Params)
	base := make([]int64, np+depth)
	for i, p := range tr.Nest.Params {
		v, ok := params[p]
		if !ok {
			return nil, fmt.Errorf("transform: missing parameter %q", p)
		}
		base[i] = v
	}
	signs := tr.signs
	return func(src, dst []int64) {
		vals := base
		copy(vals[np:], src[:depth])
		for k := 0; k < depth; k++ {
			off := comps[k].EvalExact(vals[:np+k])
			dst[k] = signs[k]*src[k] + off
		}
	}, nil
}

// Normalize rewrites every loop so its lower bound is 0, substituting
// i_k = i'_k + l_k(outer) throughout the deeper bounds (the paper's
// "without loss of generality" normal form, §IV.A). Bounds remain affine
// because each l_k is affine in the outer iterators.
func Normalize(n *nest.Nest) (*Transformed, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	depth := n.Depth()
	offsets := make([]*poly.Poly, depth)
	signs := make([]int64, depth)
	loops := make([]nest.Loop, depth)
	subst := map[string]*poly.Poly{}
	for k, l := range n.Loops {
		lo := l.Lower.SubstAll(subst)
		hi := l.Upper.SubstAll(subst)
		offsets[k] = lo
		signs[k] = 1
		loops[k] = nest.Loop{Index: l.Index, Lower: poly.Int(0), Upper: hi.Sub(lo)}
		subst[l.Index] = poly.Var(l.Index).Add(lo)
	}
	out, err := nest.New(append([]string(nil), n.Params...), loops...)
	if err != nil {
		return nil, fmt.Errorf("transform: normalized nest invalid: %w", err)
	}
	return &Transformed{Nest: out, offsets: offsets, signs: signs, src: n}, nil
}

// Rebased is the canonical form of the outermost loops of a nest: the
// pure-translation part of Normalize, held as integer coefficient rows
// over positional names. Row k of Lower and Upper has length NP+k+1:
// the coefficients of the parameters p_0..p_{NP-1}, then of the outer
// indices i_0..i_{k-1}, then the constant term. Two nests that differ
// only in the spelling of their names and in constant translations of
// their loops have equal rows.
type Rebased struct {
	NP           int
	Lower, Upper [][]int64
	// Offset[k] maps rebased index values back: i_k = i'_k + Offset[k].
	Offset []int64
}

// Rebase puts the c outermost loops of n into canonical form. Walking
// outermost first, it substitutes every rebased outer index
// i_q = i'_q + Offset[q] into loop k's bounds; when loop k's lower bound
// is then the constant d, the loop is shifted to start at 0 and
// Offset[k] = d. Any other lower bound (i'_0 + 1, say) is kept, so the
// triangular and tetrahedral shapes of the paper are their own
// canonical form. This is the "without loss of generality, every lower
// bound is 0" of §IV.A restricted to constant shifts; Normalize would
// also rebase j = i+1 to j' = 0.
//
// ok is false when the names are empty or repeated, c is out of range,
// a bound is not an affine combination of the parameters and enclosing
// indices with int64 coefficients, or a shifted constant overflows
// int64. No polynomial is built and no name is rendered.
func Rebase(n *nest.Nest, c int) (r Rebased, ok bool) {
	np := len(n.Params)
	if c < 1 || c > n.Depth() {
		return r, false
	}
	names := make([]string, 0, np+c)
	names = append(names, n.Params...)
	for _, l := range n.Loops[:c] {
		names = append(names, l.Index)
	}
	for i, v := range names {
		if v == "" {
			return r, false
		}
		for _, w := range names[:i] {
			if v == w {
				return r, false
			}
		}
	}
	// One backing array for every row: loop k needs 2·(np+k+1) slots.
	cells := make([]int64, 2*(c*(np+1)+c*(c-1)/2)+c)
	r = Rebased{NP: np, Lower: make([][]int64, c), Upper: make([][]int64, c)}
	r.Offset, cells = cells[:c:c], cells[c:]
	for k, l := range n.Loops[:c] {
		w := np + k + 1
		lo, hi := cells[:w:w], cells[w:2*w:2*w]
		cells = cells[2*w:]
		if l.Lower == nil || l.Upper == nil ||
			!l.Lower.AffineInt64(names[:np+k], lo) || !l.Upper.AffineInt64(names[:np+k], hi) {
			return r, false
		}
		for q := 0; q < k; q++ {
			d := r.Offset[q]
			if d == 0 {
				continue
			}
			for _, row := range [2][]int64{lo, hi} {
				s, ok := numeric.MulInt64(row[np+q], d)
				if ok {
					s, ok = numeric.AddInt64(row[w-1], s)
				}
				if !ok {
					return r, false
				}
				row[w-1] = s
			}
		}
		if d := lo[w-1]; d != 0 && isConst(lo) {
			u, ok := numeric.AddInt64(hi[w-1], -d)
			if !ok || d == math.MinInt64 {
				return r, false
			}
			lo[w-1], hi[w-1] = 0, u
			r.Offset[k] = d
		}
		r.Lower[k], r.Upper[k] = lo, hi
	}
	return r, true
}

// isConst reports whether an affine row has no variable term.
func isConst(row []int64) bool {
	for _, v := range row[:len(row)-1] {
		if v != 0 {
			return false
		}
	}
	return true
}

// Nest spells the rebased loops with positional names: parameters p0,
// p1, … and indices i0, i1, … outermost first.
func (r Rebased) Nest() *nest.Nest {
	c := len(r.Lower)
	names := make([]string, r.NP+c)
	for q := range names {
		if q < r.NP {
			names[q] = "p" + strconv.Itoa(q)
		} else {
			names[q] = "i" + strconv.Itoa(q-r.NP)
		}
	}
	n := &nest.Nest{Params: names[:r.NP:r.NP], Loops: make([]nest.Loop, c)}
	for k := range n.Loops {
		vars := names[:r.NP+k]
		n.Loops[k] = nest.Loop{
			Index: names[r.NP+k],
			Lower: poly.Affine(vars, r.Lower[k]),
			Upper: poly.Affine(vars, r.Upper[k]),
		}
	}
	return n
}

// Skew replaces loop `level`'s index j by j' = j + factor·i, where i is
// the index of the strictly outer loop `wrt`. The transformation is
// unimodular: bounds of level become Lower+factor·i .. Upper+factor·i,
// and deeper bounds substitute j = j' − factor·i.
func Skew(n *nest.Nest, level, wrt int, factor int64) (*Transformed, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if wrt >= level || level >= n.Depth() || wrt < 0 {
		return nil, fmt.Errorf("transform: skew needs 0 <= wrt < level < depth (got %d, %d)", wrt, level)
	}
	shift := poly.Var(n.Loops[wrt].Index).ScaleInt(factor)
	loops := append([]nest.Loop(nil), n.Loops...)
	loops[level] = nest.Loop{
		Index: loops[level].Index,
		Lower: loops[level].Lower.Add(shift),
		Upper: loops[level].Upper.Add(shift),
	}
	// Deeper bounds see the original j = j' - factor*i.
	jName := n.Loops[level].Index
	orig := poly.Var(jName).Sub(shift)
	for q := level + 1; q < n.Depth(); q++ {
		loops[q] = nest.Loop{
			Index: loops[q].Index,
			Lower: loops[q].Lower.Subst(jName, orig),
			Upper: loops[q].Upper.Subst(jName, orig),
		}
	}
	out, err := nest.New(append([]string(nil), n.Params...), loops...)
	if err != nil {
		return nil, fmt.Errorf("transform: skewed nest invalid: %w", err)
	}
	offsets := make([]*poly.Poly, n.Depth())
	signs := make([]int64, n.Depth())
	for k := range offsets {
		signs[k] = 1
		offsets[k] = poly.Zero()
	}
	offsets[level] = shift.Neg() // original j = new j' - factor*i
	return &Transformed{Nest: out, offsets: offsets, signs: signs, src: n}, nil
}

// Reverse flips loop `level`: i' = -i, turning [l, u) into (-u, -l],
// i.e. new bounds [1-u, 1-l); deeper bounds substitute i = -i'.
// Reversal changes the lexicographic execution order along that level —
// only valid when the collapsed loops are dependence-free, which the
// collapsing transformation requires anyway.
func Reverse(n *nest.Nest, level int) (*Transformed, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if level < 0 || level >= n.Depth() {
		return nil, fmt.Errorf("transform: level %d out of range", level)
	}
	loops := append([]nest.Loop(nil), n.Loops...)
	l := loops[level]
	one := poly.One()
	loops[level] = nest.Loop{
		Index: l.Index,
		Lower: one.Sub(l.Upper),
		Upper: one.Sub(l.Lower),
	}
	name := l.Index
	neg := poly.Var(name).Neg()
	for q := level + 1; q < n.Depth(); q++ {
		loops[q] = nest.Loop{
			Index: loops[q].Index,
			Lower: loops[q].Lower.Subst(name, neg),
			Upper: loops[q].Upper.Subst(name, neg),
		}
	}
	out, err := nest.New(append([]string(nil), n.Params...), loops...)
	if err != nil {
		return nil, fmt.Errorf("transform: reversed nest invalid: %w", err)
	}
	offsets := make([]*poly.Poly, n.Depth())
	signs := make([]int64, n.Depth())
	for k := range offsets {
		signs[k] = 1
		offsets[k] = poly.Zero()
	}
	signs[level] = -1
	return &Transformed{Nest: out, offsets: offsets, signs: signs, src: n}, nil
}
