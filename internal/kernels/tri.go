package kernels

import "repro/internal/nest"

// ---------------------------------------------------------------------
// utma: sum of two upper-triangular matrices (the paper uses
// 5000×5000). Purely elementwise — the collapsed pair of loops is the
// whole nest, so recovery cost per iteration matters most here (Fig. 10).
// Matrices are stored packed (row i holds columns i..N-1).
// ---------------------------------------------------------------------

// Utma is the upper-triangular matrix addition kernel.
var Utma = register(&Kernel{
	Name: "utma",
	Nest: nest.MustNew([]string{"N"},
		nest.L("i", "0", "N"),
		nest.L("j", "i", "N"),
	),
	Collapse:    2,
	BenchParams: map[string]int64{"N": 2000},
	TestParams:  map[string]int64{"N": 48},
	New:         func(p map[string]int64) Instance { return newUtmaInst(p["N"]) },
})

type utmaInst struct {
	n       int64
	a, b, c []float64
}

// upper-triangle packed size and offset: row i starts at
// i*N - i(i-1)/2, column j >= i maps to +(j-i).
func triSize(n int64) int64 { return n * (n + 1) / 2 }

func (in *utmaInst) off(i, j int64) int64 { return i*in.n - i*(i-1)/2 + (j - i) }

func newUtmaInst(n int64) *utmaInst {
	in := &utmaInst{
		n: n,
		a: make([]float64, triSize(n)),
		b: make([]float64, triSize(n)),
		c: make([]float64, triSize(n)),
	}
	lcg(in.a, 31)
	lcg(in.b, 32)
	return in
}

func (in *utmaInst) OuterRange() (int64, int64) { return 0, in.n }

func (in *utmaInst) RunOuter(i int64) {
	base := in.off(i, i)
	row := in.n - i
	a, b, c := in.a[base:base+row], in.b[base:base+row], in.c[base:base+row]
	for d := range c {
		c[d] = a[d] + b[d]
	}
}

func (in *utmaInst) RunCollapsed(idx []int64) {
	o := in.off(idx[0], idx[1])
	in.c[o] = in.a[o] + in.b[o]
}

// RunCollapsedRange is the generated-code-style fused loop (§V): the
// packed upper-triangular storage is laid out in rank order, so the
// output offset simply increments with pc while (i, j) advance inline.
func (in *utmaInst) RunCollapsedRange(start []int64, count int64) {
	i, j := start[0], start[1]
	n := in.n
	o := in.off(i, j)
	a, b, c := in.a, in.b, in.c
	for q := int64(0); q < count; q++ {
		c[o] = a[o] + b[o]
		o++
		j++
		if j >= n {
			i++
			j = i
		}
	}
}

func (in *utmaInst) WorkPerOuter(i int64) float64 { return float64(in.n - i) }

func (in *utmaInst) WorkPerCollapsed([]int64) float64 { return 1 }

func (in *utmaInst) Checksum() float64 { return checksum(in.c) }

func (in *utmaInst) Reset() {
	for x := range in.c {
		in.c[x] = 0
	}
}

// ---------------------------------------------------------------------
// ltmp: product of two lower-triangular matrices (the paper uses
// 4000×4000): C[i][j] = sum_{k=j}^{i} A[i][k]*B[k][j] for j <= i.
// The innermost k loop is a reduction (the dependence the paper reports),
// so only the two outer loops are collapsed — and because the k trip
// count varies with (i, j), the collapsed space itself remains
// load-imbalanced. This is the kernel where schedule(dynamic) beats
// collapsing in Fig. 9.
// ---------------------------------------------------------------------

// Ltmp is the lower-triangular matrix product kernel.
var Ltmp = register(&Kernel{
	Name: "ltmp",
	Nest: nest.MustNew([]string{"N"},
		nest.L("i", "0", "N"),
		nest.L("j", "0", "i+1"),
		nest.L("k", "j", "i+1"),
	),
	Collapse:        2,
	InnerDependence: true,
	BenchParams:     map[string]int64{"N": 500},
	TestParams:      map[string]int64{"N": 28},
	New:             func(p map[string]int64) Instance { return newLtmpInst(p["N"]) },
})

type ltmpInst struct {
	n       int64
	a, b, c []float64
}

func newLtmpInst(n int64) *ltmpInst {
	in := &ltmpInst{
		n: n,
		a: make([]float64, n*n),
		b: make([]float64, n*n),
		c: make([]float64, n*n),
	}
	lcg(in.a, 41)
	lcg(in.b, 42)
	return in
}

func (in *ltmpInst) OuterRange() (int64, int64) { return 0, in.n }

// cell is kept out of line so the original nest (RunOuter) and the
// collapsed program (RunCollapsed) run the same machine code for the
// k reduction. When the compiler inlined it into both, the two copies
// differed only in code placement, yet RunOuter ran ~1.45× slower on
// a 2-vCPU AMD EPYC VM, which hid the Fig. 9 ltmp anomaly.
//
//go:noinline
func (in *ltmpInst) cell(i, j int64) {
	n := in.n
	acc := 0.0
	for k := j; k <= i; k++ {
		acc += in.a[i*n+k] * in.b[k*n+j]
	}
	in.c[i*n+j] = acc
}

func (in *ltmpInst) RunOuter(i int64) {
	for j := int64(0); j <= i; j++ {
		in.cell(i, j)
	}
}

func (in *ltmpInst) RunCollapsed(idx []int64) { in.cell(idx[0], idx[1]) }

func (in *ltmpInst) WorkPerOuter(i int64) float64 {
	// sum_{j=0}^{i} (i-j+1) = (i+1)(i+2)/2
	return float64((i + 1) * (i + 2) / 2)
}

func (in *ltmpInst) WorkPerCollapsed(idx []int64) float64 {
	return float64(idx[0] - idx[1] + 1)
}

func (in *ltmpInst) Checksum() float64 { return checksum(in.c) }

func (in *ltmpInst) Reset() {
	for x := range in.c {
		in.c[x] = 0
	}
}
