package unrank

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/cmplx"

	"repro/internal/faults"
	"repro/internal/nest"
	"repro/internal/numeric"
)

// Stats counts recovery events, exposed for the overhead experiments
// (paper Fig. 10) and for diagnosing floating-point behaviour.
type Stats struct {
	RootEvals   int64 // closed-form radical evaluations (float64 path)
	Corrections int64 // exact ±1 correction steps taken
	Fallbacks   int64 // float64 failures (NaN/Inf or non-convergence)
	Searches    int64 // binary-search recoveries (fallbacks + binary mode)
	BigIntPaths int64 // exact evaluations taking the big.Int slow path

	// Escalations and EscalationsPrec128/256 are always zero: recovery
	// has no re-rank escalation and no big.Float tiers. They are kept only
	// because the benchmark harness still reads them, and are left out of
	// Add, Sub and String.
	Escalations        int64
	EscalationsPrec128 int64
	EscalationsPrec256 int64

	// Breakpoint-table counters: levels recovered through the table
	// tier and exact in-segment/confirmation evaluations spent there.
	TableLookups     int64 // level recoveries completed by table lookup
	TableCorrections int64 // exact evals spent refining/confirming a lookup
}

// Add accumulates o into s (used to aggregate per-thread stats).
func (s *Stats) Add(o Stats) {
	s.RootEvals += o.RootEvals
	s.Corrections += o.Corrections
	s.Fallbacks += o.Fallbacks
	s.Searches += o.Searches
	s.BigIntPaths += o.BigIntPaths
	s.TableLookups += o.TableLookups
	s.TableCorrections += o.TableCorrections
}

// Sub returns s - o field by field. With o a previously published
// snapshot of the same monotonically growing counters, the result is
// the delta accumulated since — the quantity a live telemetry scrape
// wants added to its counters at each chunk boundary.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		RootEvals:        s.RootEvals - o.RootEvals,
		Corrections:      s.Corrections - o.Corrections,
		Fallbacks:        s.Fallbacks - o.Fallbacks,
		Searches:         s.Searches - o.Searches,
		BigIntPaths:      s.BigIntPaths - o.BigIntPaths,
		TableLookups:     s.TableLookups - o.TableLookups,
		TableCorrections: s.TableCorrections - o.TableCorrections,
	}
}

// String renders the counters in a compact fixed-order form.
func (s Stats) String() string {
	out := fmt.Sprintf("root evals %d, corrections %d, fallbacks %d, searches %d",
		s.RootEvals, s.Corrections, s.Fallbacks, s.Searches)
	if s.BigIntPaths > 0 {
		out += fmt.Sprintf(", bigint paths %d", s.BigIntPaths)
	}
	if s.TableLookups > 0 || s.TableCorrections > 0 {
		out += fmt.Sprintf(", table lookups %d, table corrections %d", s.TableLookups, s.TableCorrections)
	}
	return out
}

// Bound is an Unranker bound to concrete parameter values, ready for
// repeated Unrank/Rank/Increment calls. A Bound is not safe for
// concurrent use — give each goroutine its own via Unranker.Bind (the
// generated OpenMP code likewise privatizes the recovery state).
//
// Tuples in and out are in the caller's coordinates. Recovery itself
// runs in the compiled artifact's: for a shifted view, Unrank adds the
// offsets once per level on the way out, and Rank subtracts them on the
// way in. Instance, First and Increment stay in the caller's
// coordinates, so incrementation and the loop bodies never see an
// offset.
type Bound struct {
	u    *Unranker
	inst *nest.Instance // the caller's coordinates
	// rinst is the instance recovery evaluates bounds on: inst itself,
	// or for a shifted view inst translated to the artifact's coordinates.
	rinst    *nest.Instance
	np       int
	depth    int
	total    int64
	totalBig *big.Int
	vals     []int64 // params followed by indices, reused (exact path)
	// fvals[k] is the positional float argument vector of level k's
	// compiled root: [params..., i_0..i_{k-1}, pc].
	fvals [][]float64
	// scratch is the reusable iteration-tuple buffer handed out by
	// Scratch — per-Bound, so the §V drivers allocate nothing per chunk.
	scratch []int64
	stats   Stats

	// Breakpoint-table state (nil unless the unranker's strategy enables
	// tables; see Unranker.tablesEnabled). tables is immutable after Bind
	// and shared by Clone; the rest is per-Bound scratch.
	tables []*levelTable
	// tvals[k] is the positional argument vector of level k's separable
	// evaluator gComp: [params..., x].
	tvals [][]int64
	// tbase[k] caches B(prefix) = rk(prefix, lb) − g(lb) for the prefix
	// in tpref[k] (valid when tvalid[k]); consecutive recoveries under an
	// unchanged prefix — the common case at small chunk sizes — then skip
	// both exact evaluations.
	tbase  []int64
	tpref  [][]int64
	tvalid []bool
}

// Bind fixes parameter values, precomputing the total iteration count.
// The count is evaluated with checked arithmetic: when it leaves the
// int64 fast path it is computed exactly over big.Int (available via
// TotalBig), and a count that cannot serve as a collapsed pc range
// (Total+1 must fit in int64) returns an error wrapping
// faults.ErrOverflow instead of wrapping around.
func (u *Unranker) Bind(params map[string]int64) (b *Bound, err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && errors.Is(e, faults.ErrOverflow) {
				b, err = nil, fmt.Errorf("unrank: bind %v: %w", params, e)
				return
			}
			panic(r)
		}
	}()
	inst, err := u.nest.Bind(params)
	if err != nil {
		return nil, err
	}
	b = &Bound{
		u:     u,
		inst:  inst,
		rinst: inst,
		np:    len(u.nest.Params),
		depth: u.nest.Depth(),
		vals:  make([]int64, len(u.order)),
	}
	cvals := make([]int64, b.np)
	for i, p := range u.nest.Params {
		v := params[p]
		b.vals[i] = v
		cvals[i] = v
	}
	if u.off != nil {
		if err := b.bindShifted(); err != nil {
			return nil, fmt.Errorf("unrank: bind %v: %w", params, err)
		}
	}
	b.fvals = make([][]float64, len(u.levels))
	for k := range u.levels {
		fv := make([]float64, b.np+k+1)
		for i := range cvals {
			fv[i] = float64(cvals[i])
		}
		b.fvals[k] = fv
	}
	// The total count goes through the explicitly checked big path: no
	// silent wraparound, and domains beyond int64 report ErrOverflow
	// with the exact count attached rather than panicking.
	if v, ok := u.countC.EvalInt64(cvals); ok {
		b.total = v
		b.totalBig = big.NewInt(v)
	} else {
		b.stats.BigIntPaths++
		r := u.countC.EvalBig(cvals)
		q := new(big.Int).Quo(r.Num(), r.Denom())
		if r.Sign() < 0 && !r.IsInt() {
			q.Sub(q, big.NewInt(1))
		}
		b.totalBig = q
		if !q.IsInt64() || q.Int64() > math.MaxInt64-1 {
			return nil, fmt.Errorf("unrank: bind %v: iteration count %s exceeds the int64 pc range: %w",
				params, q, faults.ErrOverflow)
		}
		b.total = q.Int64()
	}
	if b.total < 0 {
		return nil, fmt.Errorf("unrank: negative iteration count %d (irregular nest for %v)", b.total, params)
	}
	if u.tablesEnabled() {
		// Tables are built eagerly here — before any Clone — so worker
		// clones share the immutable tables and only duplicate the small
		// per-recovery scratch (zero steady-state allocations preserved).
		b.buildTables()
	}
	return b, nil
}

// bindShifted readies a shifted view's Bound: recovery gets the
// caller's instance translated into the compiled artifact's
// coordinates, and every value the caller's coordinates can take — each
// level's bounds and indices, bounded by the translated instance's
// extent plus the level's offset — must fit int64, or the binding is
// refused with faults.ErrOverflow instead of wrapping around in
// Instance or on the way out of Unrank.
func (b *Bound) bindShifted() error {
	rinst, ok := b.inst.Translate(b.u.off)
	var lo, hi []int64
	if ok {
		lo, hi, ok = rinst.Extent()
	}
	for k, d := range b.u.off {
		if !ok {
			break
		}
		_, okLo := numeric.AddInt64(lo[k], d)
		_, okHi := numeric.AddInt64(hi[k], d)
		ok = okLo && okHi
	}
	if !ok {
		return fmt.Errorf("index values translated by %v leave int64: %w", b.u.off, faults.ErrOverflow)
	}
	b.rinst = rinst
	return nil
}

// Clone returns an independent Bound over the same binding, sharing the
// immutable compiled core — the bound nest instance (read-only after
// Bind), the ranking/root evaluators and the precomputed totals — and
// duplicating only the small per-recovery scratch vectors. This is how
// the parallel runtime privatizes recovery state per worker without
// paying Bind's bound compilation and count evaluation once per thread:
// one Bind, then one Clone per team member. Statistics start at zero on
// the clone.
func (b *Bound) Clone() *Bound {
	nb := &Bound{
		u:        b.u,
		inst:     b.inst,
		rinst:    b.rinst,
		np:       b.np,
		depth:    b.depth,
		total:    b.total,
		totalBig: b.totalBig,
		vals:     append([]int64(nil), b.vals...),
		fvals:    make([][]float64, len(b.fvals)),
	}
	for k := range b.fvals {
		nb.fvals[k] = append([]float64(nil), b.fvals[k]...)
	}
	if b.tables != nil {
		nb.tables = b.tables // immutable after Bind, shared
		nb.tvals = make([][]int64, len(b.tvals))
		nb.tpref = make([][]int64, len(b.tpref))
		for k := range b.tvals {
			if b.tvals[k] != nil {
				nb.tvals[k] = append([]int64(nil), b.tvals[k]...)
			}
			if b.tpref[k] != nil {
				nb.tpref[k] = make([]int64, len(b.tpref[k]))
			}
		}
		nb.tbase = make([]int64, len(b.tbase))
		nb.tvalid = make([]bool, len(b.tvalid))
	}
	return nb
}

// MustBind is Bind but panics on error.
func (u *Unranker) MustBind(params map[string]int64) *Bound {
	b, err := u.Bind(params)
	if err != nil {
		panic(err)
	}
	return b
}

// Total returns the number of iterations: the collapsed loop runs
// pc = 1 .. Total.
func (b *Bound) Total() int64 { return b.total }

// TotalBig returns the exact iteration count as a big.Int — equal to
// Total() whenever the count fits int64, and the only faithful value for
// domains beyond it (Bind refuses those with ErrOverflow, but tools can
// still report the exact cardinality via the Unranker's counting
// polynomial).
func (b *Bound) TotalBig() *big.Int { return new(big.Int).Set(b.totalBig) }

// Instance returns the bound nest instance (for bound evaluation and
// lexicographic incrementation).
func (b *Bound) Instance() *nest.Instance { return b.inst }

// Depth returns the bound nest's depth.
func (b *Bound) Depth() int { return b.depth }

// Scratch returns the Bound's reusable iteration-tuple buffer (length
// Depth), allocating it on first use. Like every Bound operation it is
// single-goroutine: the §V range drivers use it so steady-state chunk
// execution performs zero allocations.
func (b *Bound) Scratch() []int64 {
	if b.scratch == nil {
		b.scratch = make([]int64, b.depth)
	}
	return b.scratch
}

// Stats returns accumulated recovery statistics.
func (b *Bound) Stats() Stats { return b.stats }

// ResetStats clears the recovery statistics.
func (b *Bound) ResetStats() { b.stats = Stats{} }

// rkEval exactly evaluates level k's substituted ranking polynomial at
// candidate index value x, given the already-recovered prefix in b.vals.
// Evaluations that overflow the int64 fast path transparently run over
// big.Int and are counted in Stats.BigIntPaths.
func (b *Bound) rkEval(k int, x int64) int64 {
	b.vals[b.np+k] = x
	v, usedBig := b.u.levels[k].rk.EvalExactTracked(b.vals[:b.np+k+1])
	if usedBig {
		b.stats.BigIntPaths++
	}
	return v
}

// searchLevel exactly recovers level k by binary search: the largest
// x in [lo, hi) with r_k(x) <= pc. The ranking polynomial is monotone in
// x, so this is O(log range) exact evaluations.
func (b *Bound) searchLevel(k int, pc, lo, hi int64) int64 {
	b.stats.Searches++
	lo0, hi0 := lo, hi-1
	for lo0 < hi0 {
		mid := lo0 + (hi0-lo0+1)/2
		if b.rkEval(k, mid) <= pc {
			lo0 = mid
		} else {
			hi0 = mid - 1
		}
	}
	return lo0
}

// Unrank recovers the iteration tuple of rank pc (1-based) into idx,
// which must have length equal to the nest depth.
//
// Each level is checked against the domain (artifact coordinates): an
// empty next loop at the recovered prefix, or a last index outside its
// bounds, means the binding is not regular, and Unrank returns an error
// wrapping faults.ErrRecoveryDiverged. An exact evaluation overflowing
// int64 is returned as an error wrapping faults.ErrOverflow, not a panic.
func (b *Bound) Unrank(pc int64, idx []int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && errors.Is(e, faults.ErrOverflow) {
				err = fmt.Errorf("unrank: pc = %d: %w", pc, e)
				return
			}
			panic(r)
		}
	}()
	if len(idx) != b.depth {
		return fmt.Errorf("unrank: index slice has length %d, want %d", len(idx), b.depth)
	}
	if pc < 1 || pc > b.total {
		return fmt.Errorf("unrank: pc = %d out of range 1..%d", pc, b.total)
	}
	k := 0
	for ; k < b.depth-1; k++ {
		ik, ok := b.recoverLevel(k, pc, idx)
		if !ok {
			break
		}
		b.setLevel(k, ik, idx)
	}
	if k < b.depth-1 || !b.lastLevel(pc, idx) {
		// Level k has no iteration of rank pc at the recovered prefix,
		// named in the caller's coordinates (Bind checked these fit).
		prefix := append([]int64(nil), idx[:k]...)
		for q, d := range b.u.off[:min(k, len(b.u.off))] {
			prefix[q] += d
		}
		return fmt.Errorf("unrank: pc = %d: loop %q has no iteration of this rank at prefix %v; the binding is not regular: %w",
			pc, b.u.nest.Loops[k].Index, prefix, faults.ErrRecoveryDiverged)
	}
	for k, d := range b.u.off {
		v, ok := numeric.AddInt64(idx[k], d)
		if !ok {
			return fmt.Errorf("unrank: pc = %d: index %d + offset %d: %w", pc, idx[k], d, faults.ErrOverflow)
		}
		idx[k] = v
	}
	return nil
}

// recoverLevel recovers level k of pc in two rungs: the mode's fast
// path (the float64 radical in closed-form mode, the breakpoint-table
// lookup in table mode), then exact binary search, which is always
// available and always exact. Search mode has no fast path. ok is false
// when level k's range is empty at the recovered prefix.
func (b *Bound) recoverLevel(k int, pc int64, idx []int64) (int64, bool) {
	lv := &b.u.levels[k]
	lo := b.rinst.LowerAt(k, idx)
	hi := b.rinst.UpperAt(k, idx)
	if hi <= lo {
		return 0, false
	}
	if lv.rootFn != nil {
		if ik, ok := b.tryFloat64(lv, k, pc, lo, hi); ok {
			return ik, true
		}
		b.stats.Fallbacks++
	} else if b.tables != nil {
		if ik, ok := b.tryTable(k, pc, lo, hi); ok {
			return ik, true
		}
	}
	return b.searchLevel(k, pc, lo, hi), true
}

// tryFloat64 attempts level k's recovery on the float64 fast path:
// evaluate the compiled radical over complex128, floor the real part
// under the assumed tolerances, then repair with the bounded exact
// correction. ok is false when the evaluation is non-finite, materially
// complex, or the correction budget is exhausted — the caller falls back
// to exact search.
func (b *Bound) tryFloat64(lv *level, k int, pc, lo, hi int64) (int64, bool) {
	fv := b.fvals[k]
	fv[len(fv)-1] = float64(pc)
	x := faults.PerturbRoot(k, lv.rootFn(fv))
	b.stats.RootEvals++
	if cmplx.IsNaN(x) || cmplx.IsInf(x) || !imagNegligible(x) {
		return 0, false
	}
	return b.correct(k, floorReal(x), pc, lo, hi)
}

// correct clamps a candidate index into [lo, hi) and applies the exact
// monotone correction: walk ik by ±1 (at most MaxCorrection exact
// polynomial evaluations) until r_k(ik) <= pc < r_k(ik+1). ok is false
// when the budget is exhausted, in which case no correction steps are
// charged.
func (b *Bound) correct(k int, ik, pc, lo, hi int64) (int64, bool) {
	if ik < lo {
		ik = lo
	}
	if ik > hi-1 {
		ik = hi - 1
	}
	steps := 0
	for b.rkEval(k, ik) > pc {
		ik--
		steps++
		if ik < lo || steps > MaxCorrection {
			return 0, false
		}
	}
	for ik+1 <= hi-1 && b.rkEval(k, ik+1) <= pc {
		ik++
		steps++
		if steps > MaxCorrection {
			return 0, false
		}
	}
	b.stats.Corrections += int64(steps)
	return ik, true
}

// setLevel records the recovered value of level k in idx, the exact
// evaluation vector, and the deeper levels' compiled float arguments.
func (b *Bound) setLevel(k int, ik int64, idx []int64) {
	idx[k] = ik
	b.vals[b.np+k] = ik
	for q := k + 1; q < len(b.fvals); q++ {
		b.fvals[q][b.np+k] = float64(ik)
	}
}

// lastLevel computes the final index directly from the prefix rank:
// i = lb + (pc - rank of first iteration at this prefix). It reports
// whether lb <= i < ub at the recovered prefix.
func (b *Bound) lastLevel(pc int64, idx []int64) bool {
	k := b.depth - 1
	base := b.u.lastRank.EvalExact(b.vals[:b.np+k])
	lb := b.rinst.LowerAt(k, idx)
	idx[k] = lb + (pc - base)
	return idx[k] >= lb && idx[k] < b.rinst.UpperAt(k, idx)
}

// Rank exactly evaluates the ranking polynomial at idx. The result is
// the 1-based rank when idx lies inside the iteration domain.
func (b *Bound) Rank(idx []int64) int64 {
	if len(idx) != b.depth {
		panic("unrank: wrong index arity")
	}
	copy(b.vals[b.np:], idx)
	for k, d := range b.u.off {
		v, ok := subChecked(idx[k], d)
		if !ok {
			panic(fmt.Errorf("unrank: rank of %v: index %d − offset %d: %w", idx, idx[k], d, faults.ErrOverflow))
		}
		b.vals[b.np+k] = v
	}
	return b.u.rankComp.EvalExact(b.vals)
}

// First fills idx with the first iteration tuple; see nest.Instance.
func (b *Bound) First(idx []int64) bool { return b.inst.First(idx) }

// Increment advances idx lexicographically; see nest.Instance.
func (b *Bound) Increment(idx []int64) bool { return b.inst.Increment(idx) }
