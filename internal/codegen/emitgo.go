package codegen

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/roots"
)

// EmitGo renders the collapsed nest as a self-contained, compilable Go
// function (serial, Fig. 3 or Fig. 4 style). The generated function has
// the signature
//
//	func <FuncName>(<param>_arg int64, ..., body func(idx ...int64))
//
// and calls body once per iteration of the original nest with the
// recovered indices. Recovery arithmetic uses float64/complex128 mirrors
// of the parameters and indices under their original names, so the
// radical expressions emitted by the roots package compile verbatim.
// Counting polynomials are evaluated in float64, exact below 2^53.
//
// Only the PerIteration and FirstIteration schemes are supported: the
// generated Go code is a readable serial reference; parallel execution is
// provided by the library runtime itself (internal/omp).
func EmitGo(r *core.Result, opts Options) (string, error) {
	rts, err := closedForm(r)
	if err != nil {
		return "", err
	}
	opts.fill()
	if opts.Scheme != PerIteration && opts.Scheme != FirstIteration {
		return "", fmt.Errorf("codegen: Go emission supports per-iteration and first-iteration schemes only")
	}
	var b strings.Builder
	w := func(format string, args ...interface{}) { fmt.Fprintf(&b, format+"\n", args...) }

	params := r.Nest.Params
	indices := r.Nest.Indices()
	var args []string
	for _, p := range params {
		args = append(args, p+"_arg int64")
	}
	args = append(args, "body func(idx ...int64)")

	w("// %s executes the collapsed loop nest", opts.FuncName)
	for _, line := range strings.Split(strings.TrimRight(r.Nest.String(), "\n"), "\n") {
		w("//\t%s", line)
	}
	w("// calling body with the original indices (%s) in lexicographic order.", strings.Join(indices, ", "))
	w("func %s(%s) {", opts.FuncName, strings.Join(args, ", "))
	for _, p := range params {
		w("\t%s := float64(%s_arg)", p, p)
	}
	if len(params) > 0 {
		w("\t_ = %s", params[0])
	}
	w("\ttotal := int64(%s)", roots.PolyGo(r.Total()))
	w("\tvar %s float64", strings.Join(indices, ", "))

	recovery := func(indent string) {
		for k, e := range rts {
			w("%s%s = math.Floor(real(%s))%s", indent, r.SubNest.Loops[k].Index, roots.GoString(e), PlusOffset(r.Unranker.Offset(k)))
		}
		last := r.SubNest.Loops[r.C-1]
		base := r.Unranker.RunStart()
		w("%s%s = (%s) + (pc - (%s))", indent, last.Index, roots.PolyGo(last.Lower), roots.PolyGo(base))
	}
	emitBody := func(indent string) {
		pad := indent
		for k := r.C; k < r.Nest.Depth(); k++ {
			l := r.Nest.Loops[k]
			w("%sfor %s = (%s); %s < (%s); %s++ {", pad, l.Index, roots.PolyGo(l.Lower), l.Index, roots.PolyGo(l.Upper), l.Index)
			pad += "\t"
		}
		var conv []string
		for _, ix := range indices {
			conv = append(conv, "int64("+ix+")")
		}
		w("%sbody(%s)", pad, strings.Join(conv, ", "))
		for k := r.Nest.Depth() - 1; k >= r.C; k-- {
			pad = pad[:len(pad)-1]
			w("%s}", pad)
		}
	}

	switch opts.Scheme {
	case PerIteration:
		w("\tfor pc := float64(1); pc <= float64(total); pc++ {")
		recovery("\t\t")
		emitBody("\t\t")
		w("\t}")
	case FirstIteration:
		w("\tfirstIteration := true")
		w("\tfor pc := float64(1); pc <= float64(total); pc++ {")
		w("\t\tif firstIteration {")
		recovery("\t\t\t")
		w("\t\t\tfirstIteration = false")
		w("\t\t}")
		emitBody("\t\t")
		// Lexicographic incrementation over the collapsed levels.
		var rec func(k int, indent string)
		rec = func(k int, indent string) {
			l := r.SubNest.Loops[k]
			w("%s%s++", indent, l.Index)
			if k == 0 {
				return
			}
			w("%sif %s >= (%s) {", indent, l.Index, roots.PolyGo(l.Upper))
			rec(k-1, indent+"\t")
			w("%s\t%s = (%s)", indent, l.Index, roots.PolyGo(l.Lower))
			w("%s}", indent)
		}
		rec(r.C-1, "\t\t")
		w("\t}")
	}
	w("}")
	return b.String(), nil
}

// GoFile wraps one or more emitted functions into a complete Go source
// file with the required imports.
func GoFile(pkg string, funcs ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by the non-rectangular loop collapser. DO NOT EDIT.\n")
	fmt.Fprintf(&b, "package %s\n\n", pkg)
	body := strings.Join(funcs, "\n")
	imports := []string{}
	if strings.Contains(body, "math.") {
		imports = append(imports, `"math"`)
	}
	if strings.Contains(body, "cmplx.") {
		imports = append(imports, `"math/cmplx"`)
	}
	if len(imports) > 0 {
		fmt.Fprintf(&b, "import (\n")
		for _, im := range imports {
			fmt.Fprintf(&b, "\t%s\n", im)
		}
		fmt.Fprintf(&b, ")\n\n")
	}
	b.WriteString(body)
	return b.String()
}
