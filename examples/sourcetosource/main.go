// Source-to-source demonstration: parse an OpenMP-annotated C loop nest
// (the collapsetool front end), collapse it, and emit every generation
// scheme — per-iteration (Fig. 3), first-iteration (Fig. 4), chunked
// (§V), SIMD (§VI.A) and GPU-warp (§VI.B) — plus a runnable Go
// rendition.
//
//	go run ./examples/sourcetosource
package main

import (
	"fmt"
	"log"

	nonrect "repro"
)

const input = `
/* sum of two upper triangular matrices (utma, §VII) */
#pragma omp parallel for collapse(2) schedule(static)
for (i = 0; i < N; i++)
  for (j = i; j < N; j++)
    C[i][j] = A[i][j] + B[i][j];
`

func main() {
	prog, err := nonrect.ParseC(input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed: collapse(%d), schedule(%s), params %v\n",
		prog.CollapseCount, prog.Schedule, prog.Nest.Params)
	fmt.Print(prog.Nest)

	res, err := nonrect.Collapse(prog.Nest, prog.CollapseCount)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nranking polynomial:", res.Ranking())
	fmt.Println("total iterations:  ", res.Total())

	schemes := []struct {
		name string
		opts nonrect.CodegenOptions
	}{
		{"per-iteration (Fig. 3)", nonrect.CodegenOptions{Scheme: nonrect.SchemePerIteration, Body: prog.Body}},
		{"first-iteration (Fig. 4)", nonrect.CodegenOptions{Scheme: nonrect.SchemeFirstIteration, Body: prog.Body}},
		{"chunked (§V)", nonrect.CodegenOptions{Scheme: nonrect.SchemeChunked, Chunk: 256, Body: prog.Body}},
		{"SIMD (§VI.A)", nonrect.CodegenOptions{Scheme: nonrect.SchemeSIMD, VLength: 8, Body: prog.Body}},
		{"warp (§VI.B)", nonrect.CodegenOptions{Scheme: nonrect.SchemeWarp, Warp: 32, Body: prog.Body}},
	}
	for _, s := range schemes {
		fmt.Printf("\n=== %s ===\n", s.name)
		src, err := nonrect.EmitC(res, s.opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(src)
	}

	fmt.Println("\n=== Go rendition ===")
	fn, err := nonrect.EmitGo(res, nonrect.CodegenOptions{Scheme: nonrect.SchemeFirstIteration, FuncName: "Utma"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(nonrect.GoFile("utma", fn))
}
