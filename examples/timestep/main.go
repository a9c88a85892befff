// A time-stepped solver pattern: a sequential outer time loop whose body
// is a collapsed non-rectangular parallel sweep, one CollapsedFor region
// per step (each region recovers the start tuple of its chunks once and
// advances by lexicographic incrementation, paper §V). Also shows
// CollapseAt for collapsing an inner loop band.
//
//	go run ./examples/timestep [-N 400] [-steps 50] [-threads 8]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	nonrect "repro"
)

func main() {
	N := flag.Int64("N", 400, "triangle size")
	steps := flag.Int("steps", 50, "time steps")
	threads := flag.Int("threads", 8, "worker threads")
	flag.Parse()

	// Per time step, update every cell (i, j) of a lower-triangular grid
	// from the previous step's values (Jacobi-style, so all (i, j) are
	// independent within a step).
	n := nonrect.MustNewNest([]string{"N"},
		nonrect.L("i", "0", "N"),
		nonrect.L("j", "0", "i+1"),
	)
	res, err := nonrect.Collapse(n, 2)
	if err != nil {
		log.Fatal(err)
	}
	params := map[string]int64{"N": *N}
	b, err := res.Unranker.Bind(params)
	if err != nil {
		log.Fatal(err)
	}
	total := b.Total()
	fmt.Printf("triangular grid: %d cells, %d steps, %d workers\n", total, *steps, *threads)

	// Triangular storage in rank order (§III memory-layout application):
	// cell (i, j) lives at rank-1 = i(i+1)/2 + j.
	cur := make([]float64, total)
	nxt := make([]float64, total)
	for x := range cur {
		cur[x] = float64(x%17) * 0.25
	}
	at := func(grid []float64, i, j int64) float64 {
		if i < 0 || j < 0 || j > i || i >= *N {
			return 0
		}
		return grid[i*(i+1)/2+j]
	}

	start := time.Now()
	for s := 0; s < *steps; s++ {
		src, dst := cur, nxt
		err := nonrect.CollapsedFor(res, params, *threads, nonrect.Schedule{Kind: nonrect.Static},
			func(tid int, idx []int64) {
				i, j := idx[0], idx[1]
				dst[i*(i+1)/2+j] = 0.25 * (at(src, i, j) + at(src, i-1, j) +
					at(src, i+1, j) + at(src, i, j-1))
			})
		if err != nil {
			log.Fatal(err)
		}
		cur, nxt = nxt, cur
	}
	elapsed := time.Since(start)

	var sum float64
	for _, v := range cur {
		sum += v
	}
	fmt.Printf("finished %d steps in %v (%.1f Mcell-updates/s); field sum %.6f\n",
		*steps, elapsed.Round(time.Millisecond),
		float64(total)*float64(*steps)/elapsed.Seconds()/1e6, sum)

	// Verify against a sequential reference run.
	ref := make([]float64, total)
	tmp := make([]float64, total)
	for x := range ref {
		ref[x] = float64(x%17) * 0.25
	}
	for s := 0; s < *steps; s++ {
		var pc int64
		for i := int64(0); i < *N; i++ {
			for j := int64(0); j <= i; j++ {
				tmp[pc] = 0.25 * (at(ref, i, j) + at(ref, i-1, j) +
					at(ref, i+1, j) + at(ref, i, j-1))
				pc++
			}
		}
		ref, tmp = tmp, ref
	}
	match := true
	for x := range ref {
		if ref[x] != cur[x] {
			match = false
			break
		}
	}
	fmt.Println("bitwise match with sequential reference:", match)

	// Bonus: CollapseAt — collapse only the inner (j, k) band of a
	// 3-deep nest, with i as a symbolic parameter of the ranking.
	deep := nonrect.MustNewNest([]string{"N"},
		nonrect.L("i", "0", "N"),
		nonrect.L("j", "i", "N"),
		nonrect.L("k", "j", "N"),
	)
	band, err := nonrect.CollapseAt(deep, 1, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCollapseAt(1,2) of {i; j=i..N; k=j..N}: ranking over params %v:\n  r = %s\n",
		band.SubNest.Params, band.Ranking())
	bb, err := band.Unranker.Bind(map[string]int64{"N": 10, "i": 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("for i=4, N=10 the band has %d (j,k) pairs\n", bb.Total())
}
