package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/nest"
	"repro/internal/omp"
	"repro/internal/unrank"
)

// kernelsWL is the paper's §VII protocol: the eleven kernels, collapsed
// and run schedule(static) on two threads, each output checksum
// compared exactly with the sequential original computed during set-up.
// Body work and static balance dominate; there are two recoveries per
// kernel run.
//
// Sizes are a quarter of the evaluation sizes (kernelParams). p99_ms
// is a median over blocks of at least 1000 kernel runs: at full size a
// 20 s run held about 330 kernel runs, too few for one block, and its
// p99 spread by 38% between runs; at half size it held two blocks, and
// p99 spread by up to 28% on a busy host.
type kernelsWL struct {
	runs  []*kernelRun
	order []int // a seeded permutation of runs
}

const kernelThreads = 2

type kernelRun struct {
	k      *kernels.Kernel
	inst   kernels.Instance
	params map[string]int64
	res    *core.Result
	ref    float64 // sequential checksum
}

func (w *kernelsWL) setup(seed int64, st *steps) error {
	all := kernels.All()
	w.runs = make([]*kernelRun, len(all))
	err := st.time("alloc", func() error {
		for i, k := range all {
			p := kernelParams(k)
			w.runs[i] = &kernelRun{k: k, params: p, inst: k.New(p)}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := st.time("collapse", func() error {
		for _, kr := range w.runs {
			res, err := kr.k.Collapsed()
			if err != nil {
				return fmt.Errorf("%s: %w", kr.k.Name, err)
			}
			kr.res = res
		}
		return nil
	}); err != nil {
		return err
	}
	if err := st.time("reference", func() error {
		for _, kr := range w.runs {
			kernels.RunSeq(kr.inst)
			kr.ref = kr.inst.Checksum()
			kr.inst.Reset()
		}
		return nil
	}); err != nil {
		return err
	}
	w.order = rand.New(rand.NewSource(seed)).Perm(len(w.runs))
	return nil
}

// kernelParams quarters every size of the kernel's evaluation binding,
// keeping tile sizes (T) as they are.
func kernelParams(k *kernels.Kernel) map[string]int64 {
	p := make(map[string]int64, len(k.BenchParams))
	for name, v := range k.BenchParams {
		if name != "T" {
			v /= 4
		}
		p[name] = v
	}
	return p
}

func (w *kernelsWL) round(r *recorder) {
	for _, i := range w.order {
		kr := w.runs[i]
		kr.inst.Reset()
		var d time.Duration
		var err error
		if r.tr == nil {
			t0 := time.Now()
			err = kernels.RunCollapsedParallel(kr.k, kr.inst, kr.res, kr.params, kernelThreads, omp.Schedule{Kind: omp.Static})
			d = time.Since(t0)
		} else {
			d, err = kr.traced(r)
		}
		got := kr.inst.Checksum()
		if r.corrupt() {
			got++
		}
		r.op(d, err == nil && got == kr.ref)
	}
}

// traced is kernels.RunCollapsedParallel rebuilt from the same public
// calls (Bind, Clone, ParallelForChunks, Unrank, then the range or
// per-tuple body), with spans around bind, each chunk's recovery and
// each chunk's body, and per-thread busy time for the imbalance.
func (kr *kernelRun) traced(r *recorder) (time.Duration, error) {
	ln := r.lane
	t0 := time.Now()
	op := ln.begin("kernel.run")
	defer op.end()
	sp := ln.begin("unrank.bind")
	b0, err := kr.res.Unranker.Bind(kr.k.NestParams(kr.params))
	sp.end()
	if err != nil {
		return time.Since(t0), err
	}
	bounds := []*unrank.Bound{b0, b0.Clone()}
	total := b0.Total()
	rr, ranged := kr.inst.(kernels.RangeRunner)
	region := ln.begin("omp.run")
	workers := []*lane{r.tr.lane(1), r.tr.lane(2)}
	cs := omp.CollapsedStats{Threads: kernelThreads, Total: total, PerThread: make([]omp.ThreadStats, kernelThreads)}
	errs := make([]error, kernelThreads)
	rt0 := time.Now()
	omp.ParallelForChunks(kernelThreads, 1, total+1, omp.Schedule{Kind: omp.Static}, func(tid int, clo, chi int64) {
		b, wl, ts := bounds[tid], workers[tid], &cs.PerThread[tid]
		c0 := time.Now()
		idx := b.Scratch()
		before := b.Stats()
		rs := wl.beginUnder(region, "unrank.recover")
		rs.items(1)
		err := b.Unrank(clo, idx)
		rs.end()
		r.lay.recovered(b.Stats().Sub(before))
		rec := time.Since(c0)
		if err == nil {
			bs := wl.beginUnder(region, "kernel.body")
			if ranged {
				rr.RunCollapsedRange(idx, chi-clo)
			} else {
				err = core.ForRangeFrom(b, clo, chi-1, idx, func(pc int64, ix []int64) { kr.inst.RunCollapsed(ix) })
			}
			bs.end()
		}
		if err != nil && errs[tid] == nil {
			errs[tid] = err
		}
		ts.Chunks++
		ts.Busy += time.Since(c0)
		ts.Recovery += rec
	})
	wall := time.Since(rt0)
	region.end()
	r.lay.region(cs, wall)
	for _, e := range errs {
		if e != nil {
			return time.Since(t0), e
		}
	}
	return time.Since(t0), nil
}

func (w *kernelsWL) probe() *probeSet {
	ps := &probeSet{reps: 3}
	for _, kr := range w.runs {
		k := kr.k
		ps.shapes = append(ps.shapes, probeShape{name: k.Name, src: nestSource(k.Nest, k.Collapse), n: k.Nest,
			c: k.Collapse, params: k.NestParams(k.TestParams)})
	}
	// The original-nest baselines are the kernels themselves at the
	// workload's sizes: sequential, outer-loop static, and collapsed.
	ps.baseline = func(tr *tracer, l *layers) error {
		static := omp.Schedule{Kind: omp.Static}
		for _, kr := range w.runs {
			kr.inst.Reset()
			t0 := time.Now()
			kernels.RunSeq(kr.inst)
			seq := time.Since(t0).Seconds()
			kr.inst.Reset()
			t0 = time.Now()
			kernels.RunOuterParallel(kr.inst, kernelThreads, static)
			outer := time.Since(t0).Seconds()
			if kr.inst.Checksum() != kr.ref {
				return fmt.Errorf("%s: outer-parallel checksum differs from sequential", kr.k.Name)
			}
			kr.inst.Reset()
			t0 = time.Now()
			if err := kernels.RunCollapsedParallel(kr.k, kr.inst, kr.res, kr.params, kernelThreads, static); err != nil {
				return err
			}
			l.baseline(seq, outer, time.Since(t0).Seconds())
		}
		return nil
	}
	return ps
}

func (w *kernelsWL) close() {}

// nestSource renders a nest as the annotated mini-C the
// source-to-source tool parses, collapsing its c outermost loops.
func nestSource(n *nest.Nest, c int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "#pragma omp parallel for collapse(%d) schedule(static)\n", c)
	for d, l := range n.Loops {
		fmt.Fprintf(&b, "%sfor (%s = %s; %s < %s; %s++)\n", strings.Repeat("  ", d),
			l.Index, l.Lower.String(), l.Index, l.Upper.String(), l.Index)
	}
	fmt.Fprintf(&b, "%sS(%s);\n", strings.Repeat("  ", len(n.Loops)), strings.Join(n.Indices(), ", "))
	return b.String()
}
