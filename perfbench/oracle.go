package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/nest"
	"repro/internal/serve"
)

// reference holds the answers of plain sequential enumeration of a
// nest's collapsed loops: the total, the order-independent visit
// checksum (Σ serve.TupleHash over every tuple) and the tuples at a
// sample of 1-based ranks. No collapsed code runs to produce it.
type reference struct {
	total    int64
	checksum uint64
	pcs      []int64
	tuples   [][]int64
}

// enumerate builds the reference of n bound to params, recording the
// tuples at `samples` distinct random ranks (plus the first and last).
func enumerate(n *nest.Nest, params map[string]int64, samples int, rng *rand.Rand) (*reference, error) {
	inst, err := n.Bind(params)
	if err != nil {
		return nil, err
	}
	ref := &reference{}
	inst.Enumerate(func(idx []int64) bool {
		ref.total++
		ref.checksum += serve.TupleHash(idx)
		return true
	})
	if ref.total == 0 {
		return nil, fmt.Errorf("empty iteration space for %v", params)
	}
	want := map[int64]bool{1: true, ref.total: true}
	for len(want) < samples+2 && int64(len(want)) < ref.total {
		want[1+rng.Int63n(ref.total)] = true
	}
	for pc := range want {
		ref.pcs = append(ref.pcs, pc)
	}
	sort.Slice(ref.pcs, func(a, b int) bool { return ref.pcs[a] < ref.pcs[b] })
	ref.tuples = make([][]int64, len(ref.pcs))
	var pc int64
	next := 0
	inst.Enumerate(func(idx []int64) bool {
		pc++
		if pc == ref.pcs[next] {
			ref.tuples[next] = append([]int64(nil), idx...)
			next++
		}
		return next < len(ref.pcs)
	})
	return ref, nil
}

// triangleTuple is the closed-form answer for the triangle
// 0 <= i < n, i <= j < n at 1-based rank pc: row i starts at rank
// i*n - i*(i-1)/2 + 1, found by exact integer bisection. It is the
// oracle for domains far too large to enumerate.
func triangleTuple(n, pc int64) (i, j int64) {
	start := func(i int64) int64 { return i*n - i*(i-1)/2 + 1 }
	lo, hi := int64(0), n-1
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if start(mid) <= pc {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, lo + pc - start(lo)
}

func equalTuple(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}
