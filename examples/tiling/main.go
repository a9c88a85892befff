// Collapsing a triangular *tile space* — the paper's §VII motivation:
// after loop tiling (Pluto --tile), incomplete tiles make even the tile
// loops non-rectangular, so OpenMP cannot collapse them and static
// scheduling of the outer tile loop is badly imbalanced. This example
// tiles the correlation triangle, collapses the two tile loops, shows
// the per-thread tile counts with and without collapsing, and verifies
// the computation.
//
//	go run ./examples/tiling [-NT 24] [-T 16] [-threads 12]
package main

import (
	"flag"
	"fmt"
	"log"
	"sync/atomic"

	nonrect "repro"
	"repro/internal/schedsim"
)

func main() {
	NT := flag.Int64("NT", 24, "tiles per dimension")
	T := flag.Int64("T", 16, "tile size")
	threads := flag.Int("threads", 12, "thread count")
	flag.Parse()

	// Tile space of a lower-triangular computation: jt = it..NT-1.
	tiles := nonrect.MustNewNest([]string{"NT"},
		nonrect.L("it", "0", "NT"),
		nonrect.L("jt", "it", "NT"),
	)
	res, err := nonrect.Collapse(tiles, 2)
	if err != nil {
		log.Fatal(err)
	}
	params := map[string]int64{"NT": *NT}
	fmt.Printf("tile space: %d x %d triangular, %s = %d tiles\n",
		*NT, *NT, res.Total(), (*NT)*(*NT+1)/2)

	// Tile weights: off-diagonal tiles hold T^2 points, diagonal tiles
	// T(T+1)/2 (incomplete). Compare per-thread loads.
	weight := func(it, jt int64) float64 {
		if jt > it {
			return float64(*T * *T)
		}
		return float64(*T * (*T + 1) / 2)
	}
	outer := make([]float64, *NT)
	for it := int64(0); it < *NT; it++ {
		for jt := it; jt < *NT; jt++ {
			outer[it] += weight(it, jt)
		}
	}
	var collapsed []float64
	b, err := res.Unranker.Bind(params)
	if err != nil {
		log.Fatal(err)
	}
	idx := make([]int64, 2)
	for pc := int64(1); pc <= b.Total(); pc++ {
		if err := b.Unrank(pc, idx); err != nil {
			log.Fatal(err)
		}
		collapsed = append(collapsed, weight(idx[0], idx[1]))
	}

	fmt.Printf("\nper-thread load (points), %d threads:\n", *threads)
	outerLoads := schedsim.StaticLoads(outer, *threads)
	collLoads := schedsim.StaticLoads(collapsed, *threads)
	fmt.Printf("%8s %18s %18s\n", "thread", "outer static", "collapsed static")
	for t := 0; t < *threads; t++ {
		fmt.Printf("%8d %18.0f %18.0f\n", t, outerLoads[t], collLoads[t])
	}
	fmt.Printf("%8s %18.0f %18.0f   (max = makespan)\n", "max",
		maxOf(outerLoads), maxOf(collLoads))
	fmt.Printf("imbalance (max/mean): outer %.2fx, collapsed %.2fx\n",
		maxOf(outerLoads)/mean(outerLoads), maxOf(collLoads)/mean(collLoads))

	// Run the collapsed tile loop for real: each tile sums its points.
	var points atomic.Int64
	err = nonrect.CollapsedFor(res, params, *threads, nonrect.Schedule{Kind: nonrect.Static},
		func(tid int, idx []int64) {
			it, jt := idx[0], idx[1]
			// Count the (i, j) points of this tile with j >= i.
			var n int64
			for i := it * *T; i < (it+1)**T; i++ {
				jlo := jt * *T
				if i > jlo {
					jlo = i
				}
				n += (jt+1)**T - jlo
			}
			points.Add(n)
		})
	if err != nil {
		log.Fatal(err)
	}
	N := *NT * *T
	want := N * (N + 1) / 2
	fmt.Printf("\ncollapsed tile execution covered %d points; triangle has %d; match = %v\n",
		points.Load(), want, points.Load() == want)
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
