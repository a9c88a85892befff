// The 3-depth tetrahedral nest of the paper's Figs. 6–7 (§IV.C): the
// outermost recovery equation is a cubic whose convenient root passes
// through complex intermediates — at pc=1 the discriminant is negative
// yet the root evaluates to 0+0i. This example prints the symbolic
// roots, demonstrates the complex evaluation, emits the Fig. 7 C code,
// and runs the fully collapsed nest in parallel.
//
//	go run ./examples/tetrahedral [-N 120]
package main

import (
	"flag"
	"fmt"
	"log"
	"sync/atomic"

	nonrect "repro"
	"repro/internal/roots"
)

func main() {
	N := flag.Int64("N", 120, "size parameter")
	flag.Parse()

	n := nonrect.MustNewNest([]string{"N"},
		nonrect.L("i", "0", "N-1"),
		nonrect.L("j", "0", "i+1"),
		nonrect.L("k", "j", "i+1"),
	)
	res, err := nonrect.Collapse(n, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("nest:")
	fmt.Print(n)
	fmt.Println("\nranking polynomial (paper §IV.C):")
	fmt.Println("  r(i,j,k) =", res.Ranking())
	fmt.Println("total iterations:", res.Total())

	fmt.Println("\nconvenient roots (selected automatically):")
	for lvl := 0; lvl < 2; lvl++ {
		e := res.Unranker.RootExpr(lvl)
		fmt.Printf("  level %d: floor(Re( %s ))\n", lvl, roots.String(e))
	}

	// §IV.C: evaluate the cubic root of level 0 at pc = 1: the inner
	// square root is of a negative number, but the full value is 0+0i.
	e0 := res.Unranker.RootExpr(0)
	x := e0.Eval(map[string]float64{"N": float64(*N), "pc": 1})
	fmt.Printf("\nlevel-0 root at pc=1 evaluates to %v (complex intermediates, real result)\n", x)

	fmt.Println("\n=== generated C code (paper Fig. 7) ===")
	src, err := nonrect.EmitC(res, nonrect.CodegenOptions{Scheme: nonrect.SchemePerIteration})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(src)

	// Run the collapsed tetrahedron and verify the iteration count.
	var count atomic.Int64
	params := map[string]int64{"N": *N}
	if err := nonrect.CollapsedFor(res, params, 6, nonrect.Schedule{Kind: nonrect.Static},
		func(tid int, idx []int64) { count.Add(1) }); err != nil {
		log.Fatal(err)
	}
	want := ((*N)*(*N)*(*N) - *N) / 6
	fmt.Printf("parallel run covered %d iterations; (N^3-N)/6 = %d; match = %v\n",
		count.Load(), want, count.Load() == want)
}
