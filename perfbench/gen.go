package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/nest"
	"repro/internal/poly"
	"repro/internal/serve"
)

// shape is one generated loop nest: bound templates over positional
// index names (#0, #1, ...) and parameter names ($0, $1, ...), the
// spelling those positions take, the collapse count and a parameter
// binding. Rendering the same templates under other spellings gives an
// α-renamed copy, which the collapse cache must recognise.
type shape struct {
	family string
	key    string // the collapsed loops' templates: equal keys are the same shape
	lo, hi []string
	idx    []string
	par    []string // sorted, so the parameter order survives renaming
	c      int
	vals   []int64 // binding, by parameter position
}

var (
	indexPool = []string{"i", "j", "k", "l", "ii", "jj", "kk", "x", "y", "z", "r", "c", "p", "q", "t", "u", "v", "w"}
	paramPool = []string{"N", "M", "L", "K", "n", "sz", "len", "T", "R", "B", "W"}
)

// maxShapeShift bounds the translation of generated shapes (see
// newShape). From a shift of about 518 the collapse of the tetrahedral
// and wedge families fails root selection ("no convenient root"), a
// known defect of the library that this benchmark does not measure.
const maxShapeShift = 500

// family is a Fig. 5 shape class: depth, collapse count, number of
// parameters, and bound templates for each of its coefficient
// variants.
type family struct {
	name     string
	depth    int
	c        int
	params   int
	variants int
	build    func(v int) (lo, hi []string)
}

// compileFamilies are the shape classes of the compile and serve
// streams: triangular (both orientations), trapezoidal, rhomboidal,
// parallelepiped, tetrahedral and deeper mixed nests, depth 2 to 4.
// Templates are sums of terms k*#n, #n, $n and integers.
var compileFamilies = []family{
	{"tri", 2, 2, 1, 3, func(v int) ([]string, []string) {
		return []string{"0", fmt.Sprintf("#0 + %d", v)}, []string{"$0", "$0 + 2"}
	}},
	{"tril", 2, 2, 1, 3, func(v int) ([]string, []string) {
		return []string{"0", "0"}, []string{"$0", fmt.Sprintf("#0 + %d", 1+v)}
	}},
	{"trap", 2, 2, 2, 3, func(v int) ([]string, []string) {
		return []string{"0", "0"}, []string{"$0", fmt.Sprintf("%d*#0 + $1", 1+v)}
	}},
	{"rhomb", 2, 2, 2, 4, func(v int) ([]string, []string) {
		return []string{"0", fmt.Sprintf("#0 + %d", v)}, []string{"$0", fmt.Sprintf("#0 + $1 + %d", v)}
	}},
	{"pped", 2, 2, 2, 4, func(v int) ([]string, []string) {
		a, b := 2+v%2, v/2 // a = 1 would be rhomb
		return []string{"0", fmt.Sprintf("%d*#0 + %d", a, b)},
			[]string{"$0", fmt.Sprintf("%d*#0 + $1 + %d", a, b)}
	}},
	{"tetra", 3, 3, 1, 2, func(v int) ([]string, []string) {
		return []string{"0", "0", "0"}, []string{"$0", fmt.Sprintf("#0 + %d", 1+v), "#1 + 1"}
	}},
	{"wedge", 3, 3, 1, 3, func(v int) ([]string, []string) {
		return []string{"0", "#0", fmt.Sprintf("#0 + %d", v)}, []string{"$0", "$0", fmt.Sprintf("#1 + %d", v+1)}
	}},
	{"tri3", 3, 2, 2, 3, func(v int) ([]string, []string) {
		return []string{"0", fmt.Sprintf("#0 + %d", v), "0"}, []string{"$0", "$0 + 2", "$1"}
	}},
	{"tri4", 4, 3, 2, 3, func(v int) ([]string, []string) {
		return []string{"0", fmt.Sprintf("#0 + %d", v), "0", "0"}, []string{"$0", "$0 + 2", "$1", "#2 + 1"}
	}},
}

// familyNamed is the compile family called name.
func familyNamed(name string) family {
	for _, f := range compileFamilies {
		if f.name == name {
			return f
		}
	}
	panic("perfbench: no compile family " + name)
}

// newShape builds variant v (modulo the family's variant count) of
// family f with fresh spellings, a small binding (N in [8,16), M in
// [3,9)) whose reference enumeration is cheap, and the outermost index
// translated by a random shift below maxShapeShift. A translate has the
// same iteration count but another ranking polynomial, so shifts give a
// large supply of distinct shapes of equal cost.
func newShape(rng *rand.Rand, f family, v int) shape {
	lo, hi := f.build(v % f.variants)
	d := rng.Intn(maxShapeShift)
	for k := range lo {
		lo[k] = translate(lo[k], d, k == 0)
		hi[k] = translate(hi[k], d, k == 0)
	}
	// Shapes whose collapsed loops agree are the same to the collapse
	// cache, whatever their family or inner loops.
	key := fmt.Sprintf("%d|%s|%s", f.c, strings.Join(lo[:f.c], ";"), strings.Join(hi[:f.c], ";"))
	s := shape{family: f.name, key: key, lo: lo, hi: hi, c: f.c}
	s.respell(rng, f.depth, f.params)
	s.vals = make([]int64, f.params)
	for p := range s.vals {
		if p == 0 {
			s.vals[p] = 8 + rng.Int63n(8)
		} else {
			s.vals[p] = 3 + rng.Int63n(6)
		}
	}
	return s
}

// translate rewrites a bound template under the substitution
// #0 -> #0 - d; the outermost loop's own bounds (outer) instead move by
// +d. The result is again a sum of terms, with one integer constant.
func translate(t string, d int, outer bool) string {
	var terms []string
	c := 0
	for _, term := range strings.Split(t, " + ") {
		coef, rest, found := strings.Cut(term, "*")
		if !found {
			coef, rest = "1", term
		}
		n, err := strconv.Atoi(coef)
		if err != nil {
			panic(fmt.Sprintf("perfbench: bad template term %q", term))
		}
		switch {
		case rest == "#0":
			c -= n * d
			terms = append(terms, term)
		case strings.HasPrefix(rest, "#") || strings.HasPrefix(rest, "$"):
			terms = append(terms, term)
		default:
			k, err := strconv.Atoi(rest)
			if err != nil {
				panic(fmt.Sprintf("perfbench: bad template term %q", term))
			}
			c += n * k
		}
	}
	if outer {
		c += d
	}
	out := strings.Join(terms, " + ")
	switch {
	case out == "":
		return strconv.Itoa(c)
	case c > 0:
		return fmt.Sprintf("%s + %d", out, c)
	case c < 0:
		return fmt.Sprintf("%s - %d", out, -c)
	}
	return out
}

// respell draws new index and parameter names.
func (s *shape) respell(rng *rand.Rand, depth, params int) {
	perm := rng.Perm(len(indexPool))
	s.idx = make([]string, depth)
	for k := range s.idx {
		s.idx[k] = indexPool[perm[k]]
	}
	pp := rng.Perm(len(paramPool))
	s.par = make([]string, params)
	for k := range s.par {
		s.par[k] = paramPool[pp[k]]
	}
	sort.Strings(s.par)
}

// renamed is an α-renamed copy of s with a new binding of similar size.
func (s shape) renamed(rng *rand.Rand) shape {
	r := s
	r.respell(rng, len(s.idx), len(s.par))
	r.vals = append([]int64(nil), s.vals...)
	for p := range r.vals {
		r.vals[p] += int64(rng.Intn(3)) - 1
	}
	return r
}

func (s shape) expr(t string) string {
	var pairs []string
	for k := len(s.idx) - 1; k >= 0; k-- { // longest placeholder first
		pairs = append(pairs, fmt.Sprintf("#%d", k), s.idx[k])
	}
	for k := len(s.par) - 1; k >= 0; k-- {
		pairs = append(pairs, fmt.Sprintf("$%d", k), s.par[k])
	}
	return strings.NewReplacer(pairs...).Replace(t)
}

// used lists the parameter positions the collapsed loops mention; the
// parser and the daemon see only those parameters.
func (s shape) used() []int {
	var out []int
	for p := range s.par {
		ph := fmt.Sprintf("$%d", p)
		for k := 0; k < s.c; k++ {
			if strings.Contains(s.lo[k], ph) || strings.Contains(s.hi[k], ph) {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

// paramNames are the names of the used parameters, sorted.
func (s shape) paramNames() []string {
	var names []string
	for _, p := range s.used() {
		names = append(names, s.par[p])
	}
	return names
}

// params is the binding of the used parameters.
func (s shape) params() map[string]int64 {
	m := map[string]int64{}
	for _, p := range s.used() {
		m[s.par[p]] = s.vals[p]
	}
	return m
}

// source renders the shape as an annotated mini-C nest, the input of
// the source-to-source tool.
func (s shape) source() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#pragma omp parallel for collapse(%d) schedule(static)\n", s.c)
	for k := range s.idx {
		fmt.Fprintf(&b, "%sfor (%s = %s; %s < %s; %s++)\n", strings.Repeat("  ", k),
			s.idx[k], s.expr(s.lo[k]), s.idx[k], s.expr(s.hi[k]), s.idx[k])
	}
	fmt.Fprintf(&b, "%sS(%s);\n", strings.Repeat("  ", len(s.idx)), strings.Join(s.idx, ", "))
	return b.String()
}

// collapsedNest builds the c collapsed loops directly from the
// templates (not through the parser), for the reference enumeration.
func (s shape) collapsedNest() (*nest.Nest, error) {
	loops := make([]nest.Loop, s.c)
	for k := range loops {
		lo, err := poly.Parse(s.expr(s.lo[k]))
		if err != nil {
			return nil, err
		}
		hi, err := poly.Parse(s.expr(s.hi[k]))
		if err != nil {
			return nil, err
		}
		loops[k] = nest.Loop{Index: s.idx[k], Lower: lo, Upper: hi}
	}
	return nest.New(s.paramNames(), loops...)
}

// spec is the structured daemon request form of the collapsed loops.
func (s shape) spec() *serve.NestSpec {
	ns := &serve.NestSpec{Params: s.paramNames()}
	for k := 0; k < s.c; k++ {
		ns.Loops = append(ns.Loops, serve.LoopSpec{Index: s.idx[k], Lower: s.expr(s.lo[k]), Upper: s.expr(s.hi[k])})
	}
	return ns
}
