package unrank

import (
	"math/big"

	"repro/internal/numeric"
)

// Breakpoint-table inversion (the "Raw-speed inversion" scheme). For a
// separable level — rk(prefix, x) = B(prefix) + g(x), detected
// symbolically at compile time — inverting the ranking polynomial no
// longer needs the prefix: tabulate g once per binding and every
// recovery becomes
//
//	target = pc − B(prefix)            (two exact evals, cached per prefix)
//	x*     = max x with g(x) ≤ target  (int64 binary search over the table)
//
// Dense tables (stride 1, level range ≤ Options.TableMaxEntries) hold
// g at every index value of the level's probed coverage and are verified
// monotone entry by entry at build time, so the lookup alone is exact —
// zero polynomial evaluations per recovery. Wider levels get
// geometrically ramped breakpoints up to a uniform power-of-two stride;
// the lookup then narrows the answer to one segment, a short exact
// binary search over g pins it, and a bounded exact correction against
// rk confirms it (the confirmation keeps the strided path sound even if
// g were non-monotone between breakpoints — a wrong segment costs a
// fallback to exact binary search, never a wrong tuple).
//
// Every number involved is an exact integer: the build rejects entries
// that are fractional or overflow int64, truncating or disabling the
// table instead. A lookup that cannot answer (prefix bounds outside the
// probed coverage, overflowing target arithmetic, failed confirmation)
// punts to searchLevel. The table path may punt; it can never be wrong.

// levelTable is one level's precomputed inversion table, immutable after
// Bind and shared across Clones.
type levelTable struct {
	lo, hi int64 // probed coverage: x ∈ [lo, hi)
	// gs[j] = g(xj) exactly, non-decreasing. Dense tables have xj = lo+j
	// and xs == nil; strided tables list breakpoints in xs (ascending,
	// xs[0] == lo).
	gs []int64
	xs []int64
}

// dense reports whether the table holds every index value of [lo, hi).
func (t *levelTable) dense() bool { return t.xs == nil }

// buildTables tabulates every separable level. Called once from Bind,
// before any Clone, when the strategy enables tables. Build failures are
// silent by design: a level without a usable table simply keeps the
// exact binary-search fallback.
func (b *Bound) buildTables() {
	d := b.depth
	if d < 2 {
		return
	}
	b.tables = make([]*levelTable, d-1)
	b.tvals = make([][]int64, d-1)
	b.tbase = make([]int64, d-1)
	b.tpref = make([][]int64, d-1)
	b.tvalid = make([]bool, d-1)
	idxA := make([]int64, d)
	if !b.rinst.First(idxA) {
		return // empty domain: nothing to recover, nothing to tabulate
	}
	// Coverage probing: affine bounds are monotone in each prefix
	// iterator, so the lexicographically first tuple and a greedy
	// max-at-every-level tuple probe two extreme corners of the prefix
	// box. Their union covers the whole per-level index range for the
	// common shapes (rectangular, triangular either way, simplex);
	// shapes that peak elsewhere merely leave a coverage hole the
	// lookup punts on.
	idxB := make([]int64, d)
	for q := 0; q < d; q++ {
		lo, hi := b.rinst.BoundsAt(q, idxB)
		if hi <= lo {
			copy(idxB, idxA) // degenerate corner: fall back to the first tuple
			break
		}
		idxB[q] = hi - 1
	}
	for k := 0; k < d-1; k++ {
		if b.u.levels[k].gComp == nil {
			continue
		}
		tv := make([]int64, b.np+1)
		copy(tv, b.vals[:b.np])
		b.tvals[k] = tv
		b.tpref[k] = make([]int64, k)
		lo := b.rinst.LowerAt(k, idxA)
		hi := b.rinst.UpperAt(k, idxA)
		if l2 := b.rinst.LowerAt(k, idxB); l2 < lo {
			lo = l2
		}
		if h2 := b.rinst.UpperAt(k, idxB); h2 > hi {
			hi = h2
		}
		b.tables[k] = b.buildLevelTable(k, lo, hi)
	}
}

// buildLevelTable tabulates g for level k over [lo, hi), returning nil
// when no usable table exists (empty range, fractional or overflowing
// entries at the very first breakpoint, non-monotone samples).
func (b *Bound) buildLevelTable(k int, lo, hi int64) *levelTable {
	rng := hi - lo
	if rng <= 1 {
		return nil // a single candidate value needs no table
	}
	maxE := int64(b.u.tableMax)
	if rng <= maxE {
		// Dense table: g at every index value, verified monotone at
		// every step — the lookup is exact on its own.
		gs := make([]int64, rng)
		for j := int64(0); j < rng; j++ {
			v, ok := b.gTableEval(k, lo+j)
			if !ok || (j > 0 && v < gs[j-1]) {
				if j < 2 {
					return nil
				}
				return &levelTable{lo: lo, hi: lo + j, gs: gs[:j]}
			}
			gs[j] = v
		}
		return &levelTable{lo: lo, hi: hi, gs: gs}
	}
	// Strided table: a geometric ramp (1, 2, 4, …) from lo — recoveries
	// cluster near the level's start under ascending pc workloads — up
	// to the uniform power-of-two stride that fits the entry budget.
	stride := int64(1)
	for rng/stride > maxE {
		stride <<= 1
	}
	xs := make([]int64, 0, maxE+16)
	gs := make([]int64, 0, maxE+16)
	push := func(x int64) bool {
		v, ok := b.gTableEval(k, x)
		if !ok || (len(gs) > 0 && v < gs[len(gs)-1]) {
			return false
		}
		xs = append(xs, x)
		gs = append(gs, v)
		return true
	}
	for off := int64(0); off < rng; {
		if !push(lo + off) {
			break
		}
		if off < stride {
			if off == 0 {
				off = 1
			} else {
				off <<= 1
			}
		} else {
			off += stride
		}
	}
	if len(xs) < 2 {
		return nil
	}
	return &levelTable{lo: lo, hi: min64(hi, xs[len(xs)-1]+stride), gs: gs, xs: xs}
}

// gTableEval exactly evaluates level k's separable part g at x for the
// table build, rejecting fractional or non-int64 values instead of
// flooring them (a floored entry would poison every lookup that lands
// on it; a rejected one merely truncates coverage).
func (b *Bound) gTableEval(k int, x int64) (int64, bool) {
	tv := b.tvals[k]
	tv[b.np] = x
	g := b.u.levels[k].gComp
	if v, ok := g.EvalInt64(tv); ok {
		return v, true
	}
	r := g.EvalBig(tv)
	if !r.IsInt() {
		return 0, false
	}
	q := new(big.Int).Quo(r.Num(), r.Denom())
	if !q.IsInt64() {
		return 0, false
	}
	return q.Int64(), true
}

// gEval exactly evaluates g at x on the recovery path (strided
// in-segment refinement). Values here are known to be integers — the
// confirmation step against rk repairs any floored stray — and big.Int
// escapes are counted like every other exact evaluation.
func (b *Bound) gEval(k int, x int64) int64 {
	tv := b.tvals[k]
	tv[b.np] = x
	v, usedBig := b.u.levels[k].gComp.EvalExactTracked(tv)
	if usedBig {
		b.stats.BigIntPaths++
	}
	return v
}

// tableBase returns B(prefix) = rk(prefix, lo) − g(lo) for the current
// prefix (in b.vals), cached per level until the prefix changes. lo must
// lie inside the table's coverage.
func (b *Bound) tableBase(k int, lo int64) (int64, bool) {
	pref := b.tpref[k]
	if b.tvalid[k] {
		same := true
		for q := 0; q < k; q++ {
			if pref[q] != b.vals[b.np+q] {
				same = false
				break
			}
		}
		if same {
			return b.tbase[k], true
		}
	}
	base, ok := subChecked(b.rkEval(k, lo), b.gEval(k, lo))
	if !ok {
		return 0, false
	}
	for q := 0; q < k; q++ {
		pref[q] = b.vals[b.np+q]
	}
	b.tbase[k] = base
	b.tvalid[k] = true
	return base, true
}

// tryTable attempts level k's recovery through the breakpoint table:
// the largest x in [lo, hi) with rk(prefix, x) ≤ pc, answered as the
// largest x with g(x) ≤ pc − B(prefix). ok is false when the level has
// no table, the level's bounds leave the probed coverage, the target
// arithmetic overflows, or a strided confirmation fails — the caller
// then falls back to exact binary search.
func (b *Bound) tryTable(k int, pc, lo, hi int64) (int64, bool) {
	tb := b.tables[k]
	if tb == nil || lo < tb.lo || hi > tb.hi {
		return 0, false
	}
	base, ok := b.tableBase(k, lo)
	if !ok {
		return 0, false
	}
	target, ok := subChecked(pc, base)
	if !ok {
		return 0, false
	}
	b.stats.TableLookups++
	if tb.dense() {
		// Search window: table positions of [lo, hi). g(lo) ≤ target is
		// an invariant (pc is inside this prefix's subtree), so the
		// rightmost position with gs ≤ target exists and is exact.
		jl, jr := lo-tb.lo, hi-tb.lo-1
		for jl < jr {
			mid := jl + (jr-jl+1)/2
			if tb.gs[mid] <= target {
				jl = mid
			} else {
				jr = mid - 1
			}
		}
		return tb.lo + jl, true
	}
	// Strided: clamp the breakpoint window to [lo, hi), pick the
	// rightmost in-window breakpoint with gs ≤ target, refine inside its
	// segment with exact g evaluations, then confirm against rk.
	jmin := searchRightmostLE(tb.xs, lo)
	jmax := searchRightmostLT(tb.xs, hi)
	jl, jr := jmin, jmax
	for jl < jr {
		mid := jl + (jr-jl+1)/2
		if tb.gs[mid] <= target {
			jl = mid
		} else {
			jr = mid - 1
		}
	}
	segLo := max64(tb.xs[jl], lo)
	segHi := hi
	if jl < jmax {
		segHi = tb.xs[jl+1]
	}
	lo0, hi0 := segLo, segHi-1
	for lo0 < hi0 {
		mid := lo0 + (hi0-lo0+1)/2
		b.stats.TableCorrections++
		if b.gEval(k, mid) <= target {
			lo0 = mid
		} else {
			hi0 = mid - 1
		}
	}
	// Exact confirmation against rk itself: the strided path's only
	// unverified assumption is g's monotonicity between breakpoints,
	// and correct() walks that assumption off if it was wrong (ok=false
	// ⇒ the caller's binary-search fallback decides).
	steps0 := b.stats.Corrections
	ik, ok := b.correct(k, lo0, pc, lo, hi)
	b.stats.TableCorrections += b.stats.Corrections - steps0 + 1
	return ik, ok
}

// searchRightmostLE returns the largest index j with xs[j] <= v
// (0 when even xs[0] exceeds v — callers guarantee xs[0] <= v).
func searchRightmostLE(xs []int64, v int64) int {
	jl, jr := 0, len(xs)-1
	for jl < jr {
		mid := jl + (jr-jl+1)/2
		if xs[mid] <= v {
			jl = mid
		} else {
			jr = mid - 1
		}
	}
	return jl
}

// searchRightmostLT is searchRightmostLE with a strict bound.
func searchRightmostLT(xs []int64, v int64) int {
	jl, jr := 0, len(xs)-1
	for jl < jr {
		mid := jl + (jr-jl+1)/2
		if xs[mid] < v {
			jl = mid
		} else {
			jr = mid - 1
		}
	}
	return jl
}

// subChecked is a−b with overflow detection.
func subChecked(a, b int64) (int64, bool) {
	if b == minInt64 {
		return 0, false
	}
	return numeric.AddInt64(a, -b)
}

const minInt64 = -1 << 63

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
