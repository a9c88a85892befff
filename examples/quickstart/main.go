// Quickstart: collapse a triangular loop nest and run it on a goroutine
// team with a perfectly balanced static schedule.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sync/atomic"

	nonrect "repro"
)

func main() {
	// The triangular nest of the paper's motivating example (Fig. 1):
	//
	//	for (i = 0; i < N-1; i++)
	//	  for (j = i+1; j < N; j++)
	//	    ... independent work on (i, j) ...
	n := nonrect.MustNewNest([]string{"N"},
		nonrect.L("i", "0", "N-1"),
		nonrect.L("j", "i+1", "N"),
	)

	// Collapse both loops: compute the ranking polynomial and its
	// symbolic inverse.
	res, err := nonrect.Collapse(n, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ranking polynomial:  r(i,j) =", res.Ranking())
	fmt.Println("total iterations:    ", res.Total())

	// Run the collapsed loop: every goroutine receives one contiguous,
	// equally sized chunk of ranks; original indices are recovered once
	// per chunk and then advanced by cheap incrementation (§V).
	params := map[string]int64{"N": 2000}
	var sum atomic.Int64
	err = nonrect.CollapsedFor(res, params, 8,
		nonrect.Schedule{Kind: nonrect.Static},
		func(tid int, idx []int64) {
			i, j := idx[0], idx[1]
			sum.Add(i*3 + j)
		})
	if err != nil {
		log.Fatal(err)
	}

	// Verify against the sequential nest.
	var want int64
	N := params["N"]
	for i := int64(0); i < N-1; i++ {
		for j := i + 1; j < N; j++ {
			want += i*3 + j
		}
	}
	fmt.Printf("parallel sum = %d, sequential sum = %d, match = %v\n",
		sum.Load(), want, sum.Load() == want)

	// Exact rank/unrank queries are available on the bound unranker.
	b, err := res.Unranker.Bind(params)
	if err != nil {
		log.Fatal(err)
	}
	idx := make([]int64, 2)
	if err := b.Unrank(b.Total()/2, idx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("iteration at the midpoint rank %d: (i=%d, j=%d), rank back = %d\n",
		b.Total()/2, idx[0], idx[1], b.Rank(idx))
}
