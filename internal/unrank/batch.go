package unrank

import (
	"errors"
	"fmt"

	"repro/internal/faults"
)

// RecoverBatch resolves many collapsed ranks in one pass: out[i] receives
// the iteration tuple of rank pcs[i]. pcs must be sorted ascending
// (duplicates allowed) and every out[i] must have length Depth; the out
// slices are the caller's — steady-state batch recovery allocates
// nothing.
//
// Sorted inputs amortize the per-pc ladder three ways:
//
//   - pc == prev    → the previous tuple is copied;
//   - pc == prev+1  → the previous tuple is advanced lexicographically
//     (the §V incrementation, exact by construction);
//   - otherwise the recovered prefix of the previous tuple is reused:
//     levels whose subtree still contains pc — checked with two exact
//     evaluations of the monotone ranking polynomial — are kept, and
//     only the first level that moved (and everything deeper) goes back
//     through the recovery ladder. Nearby ranks share their table
//     descent prefix, so a batch of chunk starts costs little more than
//     one full recovery plus one cheap tail re-derivation per element.
//
// In verify mode each fully re-recovered tuple is exactly re-ranked as
// in Unrank; copy- and increment-derived tuples are exact by
// construction and skip the check. Errors follow Unrank's contract
// (typed validation errors, faults.ErrOverflow, ErrRecoveryDiverged).
func (b *Bound) RecoverBatch(pcs []int64, out [][]int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && errors.Is(e, faults.ErrOverflow) {
				err = fmt.Errorf("unrank: batch: %w", e)
				return
			}
			panic(r)
		}
	}()
	if len(out) != len(pcs) {
		return fmt.Errorf("unrank: batch: %d pcs but %d output tuples", len(pcs), len(out))
	}
	d := b.depth
	for i, pc := range pcs {
		if len(out[i]) != d {
			return fmt.Errorf("unrank: batch: output tuple %d has length %d, want %d", i, len(out[i]), d)
		}
		if pc < 1 || pc > b.total {
			return fmt.Errorf("unrank: batch: pcs[%d] = %d out of range 1..%d", i, pc, b.total)
		}
		if i > 0 && pc < pcs[i-1] {
			return fmt.Errorf("unrank: batch: pcs not ascending at %d (%d after %d)", i, pc, pcs[i-1])
		}
	}
	var prev []int64
	var prevPC int64
	for i, pc := range pcs {
		idx := out[i]
		if prev == nil {
			if err := b.recoverInto(pc, idx); err != nil {
				return err
			}
			prev, prevPC = idx, pc
			continue
		}
		switch pc - prevPC {
		case 0:
			copy(idx, prev)
			prev, prevPC = idx, pc
			continue
		case 1:
			copy(idx, prev)
			if !b.inst.Increment(idx) {
				// pc ≤ total guarantees a successor exists; an exhausted
				// Increment means the previous tuple was corrupt.
				return fmt.Errorf("unrank: batch: iteration space exhausted advancing to pc=%d: %w",
					pc, faults.ErrRecoveryDiverged)
			}
			prev, prevPC = idx, pc
			continue
		}
		copy(idx, prev)
		// Shared-prefix descent: level k is kept iff pc still lies in the
		// subtree of prev's level-k value — rk(prefix, v) ≤ pc and either
		// v+1 is past the level's bound (pc is inside the parent subtree,
		// so the last child must contain it) or rk(prefix, v+1) > pc.
		k := 0
		for ; k < d-1; k++ {
			v := idx[k]
			lo, hi := b.inst.BoundsAt(k, idx)
			if v < lo || v >= hi || b.rkEval(k, v) > pc ||
				(v+1 < hi && b.rkEval(k, v+1) <= pc) {
				break
			}
			b.setLevel(k, v, idx)
		}
		for ; k < d-1; k++ {
			b.setLevel(k, b.recoverLevel(k, pc, idx), idx)
		}
		b.lastLevel(pc, idx)
		if err := b.maybeVerify(pc, idx); err != nil {
			return err
		}
		prev, prevPC = idx, pc
	}
	b.stats.BatchRecoveries += int64(len(pcs))
	return nil
}
