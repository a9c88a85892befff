// SIMD-batch (§VI.A) and GPU-warp (§VI.B) execution of a collapsed
// rhomboidal nest. The warp scheme assigns consecutive collapsed
// iterations to the W lanes of a warp — the memory-coalescing
// distribution of GPU programming — with each lane performing the
// costly recovery only once and advancing by W incrementations.
//
//	go run ./examples/gpuwarp [-N 300] [-M 64] [-W 32]
package main

import (
	"flag"
	"fmt"
	"log"
	"sync/atomic"

	nonrect "repro"
)

func main() {
	N := flag.Int64("N", 300, "outer size")
	M := flag.Int64("M", 64, "band width (rhomboid)")
	W := flag.Int("W", 32, "warp width")
	flag.Parse()

	// Rhomboidal space: j runs in a band of width M shifted by i.
	n := nonrect.MustNewNest([]string{"N", "M"},
		nonrect.L("i", "0", "N"),
		nonrect.L("j", "i", "i+M"),
	)
	res, err := nonrect.Collapse(n, 2)
	if err != nil {
		log.Fatal(err)
	}
	params := map[string]int64{"N": *N, "M": *M}
	total := *N * *M
	fmt.Printf("rhomboid %dx%d: ranking r(i,j) = %s, total = %s\n", *N, *M, res.Ranking(), res.Total())

	// Output vector indexed by rank-1: both schemes must fill it fully.
	out := make([]int64, total)

	// §VI.A: SIMD batches of 8 consecutive tuples per call.
	var batches atomic.Int64
	err = nonrect.CollapsedForSIMD(res, params, 4, 8, func(tid int, batch [][]int64) {
		batches.Add(1)
		for _, idx := range batch {
			i, j := idx[0], idx[1]
			out[i*(*M)+(j-i)] = i + j
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SIMD scheme: %d batches of <= 8 tuples, filled %d cells\n", batches.Load(), countFilled(out))

	// §VI.B: warp of W lanes, stride-W iteration interleaving.
	for x := range out {
		out[x] = 0
	}
	var perLane atomic.Int64
	err = nonrect.CollapsedForWarp(res, params, *W, func(lane int, pc int64, idx []int64) {
		i, j := idx[0], idx[1]
		out[i*(*M)+(j-i)] = i + j
		perLane.Add(1)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warp scheme: W=%d lanes executed %d iterations, filled %d cells\n",
		*W, perLane.Load(), countFilled(out))
	if countFilled(out) != total {
		log.Fatalf("coverage hole: %d != %d", countFilled(out), total)
	}
	fmt.Println("full coverage verified for both schemes")
}

func countFilled(out []int64) int64 {
	var c int64
	for x, v := range out {
		// i + j = 0 only for the very first cell (i=j=0).
		if v != 0 || x == 0 {
			c++
		}
	}
	return c
}
