package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/nest"
	"repro/internal/omp"
	"repro/internal/unrank"
)

// fineWL runs large trivial-body nests under fine schedules through the
// per-tuple and the per-range executors, plus random-rank Unrank
// sweeps, so recovery, incrementation and chunk dispatch do almost all
// the work. The seed shifts every nest's origin (identical work, other
// inputs), orders the operations and draws the swept ranks.
type fineWL struct {
	nests []*fineNest
	ops   []fineOp
	huge  *hugeTri
}

const fineThreads = 2

// fineSchedules are the fine-grained schedules every executable nest
// runs under.
var fineSchedules = []omp.Schedule{
	{Kind: omp.Dynamic, Chunk: 1},
	{Kind: omp.Dynamic, Chunk: 8},
	{Kind: omp.Dynamic, Chunk: 64},
	{Kind: omp.Guided},
	{Kind: omp.StaticChunk, Chunk: 1},
}

// sweepLen is the number of random ranks one sweep op recovers.
const sweepLen = 500

type fineNest struct {
	name   string
	n      *nest.Nest
	params map[string]int64
	opts   unrank.Options
	res    *core.Result
	bound  *unrank.Bound // for the sweeps
	ref    *reference
	sweep  []int64   // ranks, in sweep order
	want   [][]int64 // reference tuples of sweep
	buf    []int64   // the sweep's recovered tuples
}

// hugeTri is the triangle at N = 2^30: too large to enumerate, checked
// by closed-form integer arithmetic, and near its last row the float64
// recovery tier fails and the precision ladder takes over.
type hugeTri struct {
	n     int64
	res   *core.Result
	bound *unrank.Bound
	sweep []int64
	buf   []int64
}

type fineOp struct {
	nest   *fineNest
	sched  omp.Schedule
	ranged bool
	sweep  bool // a recovery sweep of nest (or of the huge triangle when nest is nil)
}

// fineShapes builds the executable nests with their origin shifted by
// s: the same iteration counts under every seed.
func fineShapes(s int64) []*fineNest {
	o := fmt.Sprint(s)
	return []*fineNest{
		{name: "triangular", n: nest.MustNew([]string{"N", "S"},
			nest.L("i", "S", "N + S"), nest.L("j", "i + 1", "N + S")),
			params: map[string]int64{"N": 150, "S": s}},
		{name: "trapezoidal", n: nest.MustNew([]string{"N", "M", "S"},
			nest.L("i", "S", "N + S"), nest.L("j", "S", "i + M")),
			params: map[string]int64{"N": 100, "M": 30, "S": s}},
		{name: "tetrahedral", n: nest.MustNew([]string{"N"},
			nest.L("i", o, "N + "+o), nest.L("j", o, "i + 1"), nest.L("k", o, "j + 1")),
			params: map[string]int64{"N": 38}},
		{name: "simplex5", n: nest.MustNew([]string{"N"},
			nest.L("a", "0", "N"), nest.L("b", "0", "a + 1"), nest.L("c", "0", "b + 1"),
			nest.L("d", "0", "c + 1"), nest.L("e", "0", "d + 1")),
			params: map[string]int64{"N": 13}, opts: unrank.Options{Mode: unrank.ModeTable}},
	}
}

func (w *fineWL) setup(seed int64, st *steps) error {
	rng := rand.New(rand.NewSource(seed))
	w.nests = fineShapes(rng.Int63n(maxShapeShift))
	if err := st.time("collapse", func() error {
		for _, fn := range w.nests {
			res, err := core.Collapse(fn.n, fn.n.Depth(), fn.opts)
			if err != nil {
				return fmt.Errorf("%s: %w", fn.name, err)
			}
			fn.res = res
		}
		tri := nest.MustNew([]string{"N"}, nest.L("i", "0", "N"), nest.L("j", "i", "N"))
		res, err := core.Collapse(tri, 2, unrank.Options{})
		w.huge = &hugeTri{n: 1 << 30, res: res}
		return err
	}); err != nil {
		return err
	}
	if err := st.time("bind", func() error {
		for _, fn := range w.nests {
			b, err := fn.res.Unranker.Bind(fn.params)
			if err != nil {
				return fmt.Errorf("%s: %w", fn.name, err)
			}
			fn.bound = b
		}
		b, err := w.huge.res.Unranker.Bind(map[string]int64{"N": w.huge.n})
		w.huge.bound = b
		return err
	}); err != nil {
		return err
	}
	if err := st.time("reference", func() error {
		for _, fn := range w.nests {
			ref, err := enumerate(fn.n, fn.params, sweepLen, rng)
			if err != nil {
				return fmt.Errorf("%s: %w", fn.name, err)
			}
			fn.ref = ref
			for _, k := range rng.Perm(len(ref.pcs)) {
				fn.sweep = append(fn.sweep, ref.pcs[k])
				fn.want = append(fn.want, ref.tuples[k])
			}
		}
		// Half the huge-N sweep is uniform, half within the last 4096
		// ranks, where the ladder is needed.
		total := w.huge.bound.Total()
		for k := 0; k < sweepLen; k++ {
			if k%2 == 0 {
				w.huge.sweep = append(w.huge.sweep, 1+rng.Int63n(total))
			} else {
				w.huge.sweep = append(w.huge.sweep, total-rng.Int63n(4096))
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for _, fn := range w.nests {
		for _, s := range fineSchedules {
			w.ops = append(w.ops, fineOp{nest: fn, sched: s}, fineOp{nest: fn, sched: s, ranged: true})
		}
		w.ops = append(w.ops, fineOp{nest: fn, sweep: true})
	}
	w.ops = append(w.ops, fineOp{sweep: true})
	rng.Shuffle(len(w.ops), func(a, b int) { w.ops[a], w.ops[b] = w.ops[b], w.ops[a] })
	return nil
}

// visit is one worker's visit count and Σ serve.TupleHash (inlined in
// the bodies below), padded to its own cache line.
type visit struct {
	n int64
	h uint64
	_ [6]uint64
}

const (
	fnvOffset = 1469598103934665603
	fnvPrime  = 1099511628211
)

func (w *fineWL) round(r *recorder) {
	for _, op := range w.ops {
		t0 := time.Now()
		var ok bool
		switch {
		case op.sweep && op.nest == nil:
			h := w.huge
			ok = unrankAll(r.lane, r.lay, h.bound, h.sweep, &h.buf, func(k int, idx []int64) bool {
				i, j := triangleTuple(h.n, h.sweep[k])
				return idx[0] == i && idx[1] == j
			})
		case op.sweep:
			fn := op.nest
			ok = unrankAll(r.lane, r.lay, fn.bound, fn.sweep, &fn.buf, func(k int, idx []int64) bool {
				return equalTuple(idx, fn.want[k])
			})
		default:
			ok = op.run(r)
		}
		if op.sweep && r.corrupt() {
			ok = false
		}
		r.op(time.Since(t0), ok)
	}
}

// run executes the op's nest under its schedule and executor, checking
// the visit count and checksum against enumeration.
func (op fineOp) run(r *recorder) bool {
	fn := op.nest
	var acc [fineThreads]visit
	tuple := func(tid int, idx []int64) {
		h := uint64(fnvOffset)
		for _, v := range idx {
			h = (h ^ uint64(v)) * fnvPrime
		}
		acc[tid].n++
		acc[tid].h += h
	}
	ranges := func(tid int, pc int64, prefix []int64, lo, hi int64) {
		hp := uint64(fnvOffset)
		for _, v := range prefix {
			hp = (hp ^ uint64(v)) * fnvPrime
		}
		a := &acc[tid]
		for v := lo; v < hi; v++ {
			a.h += (hp ^ uint64(v)) * fnvPrime
		}
		a.n += hi - lo
	}
	var err error
	sp := r.lane.begin("omp.run")
	switch {
	case op.ranged:
		err = omp.CollapsedForRanges(fn.res, fn.params, fineThreads, op.sched, ranges)
	case r.tr == nil:
		err = omp.CollapsedFor(fn.res, fn.params, fineThreads, op.sched, tuple)
	default:
		t0 := time.Now()
		var cs omp.CollapsedStats
		cs, err = omp.CollapsedForChunkTelemetryCtx(context.Background(), fn.res, fn.params, fineThreads, op.sched, nil, tuple)
		r.lay.region(cs, time.Since(t0))
		r.lay.chunkRecoveries(cs)
	}
	sp.end()
	n, h := acc[0].n+acc[1].n, acc[0].h+acc[1].h
	if r.corrupt() {
		h++
	}
	return err == nil && n == fn.ref.total && h == fn.ref.checksum
}

func (w *fineWL) probe() *probeSet {
	ps := &probeSet{reps: 3}
	for _, fn := range w.nests {
		ps.shapes = append(ps.shapes, probeShape{name: fn.name, src: nestSource(fn.n, fn.n.Depth()), n: fn.n, c: fn.n.Depth(),
			params: fn.params, opts: fn.opts})
	}
	return ps
}

func (w *fineWL) close() {}
