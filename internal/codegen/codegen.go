// Package codegen emits source code for collapsed loop nests: the C
// programs of the paper's Figs. 3, 4 and 7, the §V chunked scheme, the
// §VI.A SIMD scheme and the §VI.B GPU-warp scheme, plus a runnable Go
// rendition of the collapsed loop. Together with the cparse front end it
// forms the source-to-source tool described in §VII.
package codegen

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/roots"
)

// Scheme selects the index-recovery strategy of the generated code.
type Scheme int

const (
	// PerIteration recovers all indices from pc at every iteration
	// (paper Fig. 3 and Fig. 7).
	PerIteration Scheme = iota
	// FirstIteration performs the costly recovery once per thread and
	// increments afterwards (paper Fig. 4, §V static scheme).
	FirstIteration
	// Chunked recovers once per CHUNK iterations
	// (§V schedule(static, CHUNK) scheme).
	Chunked
	// SIMD pre-computes vlength index tuples per batch and vectorises the
	// statement loop (§VI.A).
	SIMD
	// Warp distributes consecutive iterations across W lanes, each
	// recovering once and incrementing W times between iterations (§VI.B).
	Warp
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case PerIteration:
		return "per-iteration"
	case FirstIteration:
		return "first-iteration"
	case Chunked:
		return "chunked"
	case SIMD:
		return "simd"
	case Warp:
		return "warp"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Options configure emission.
type Options struct {
	Scheme   Scheme
	Schedule string // schedule clause body, default "static"
	Chunk    int    // Chunked scheme chunk size, default 64
	VLength  int    // SIMD vector length, default 8
	Warp     int    // Warp width, default 32
	// Body is the statement text; occurrences of the original index names
	// remain valid because recovery assigns those very variables. When
	// empty, a call S(i1, ..., ic) is emitted. For nests deeper than the
	// collapse count, the remaining inner loops are emitted around Body.
	Body string
	// FuncName names the emitted Go function (Go emission only);
	// default "CollapsedLoop".
	FuncName string
}

func (o *Options) fill() {
	if o.Schedule == "" {
		o.Schedule = "static"
	}
	if o.Chunk <= 0 {
		o.Chunk = 64
	}
	if o.VLength <= 0 {
		o.VLength = 8
	}
	if o.Warp <= 0 {
		o.Warp = 32
	}
	if o.FuncName == "" {
		o.FuncName = "CollapsedLoop"
	}
}

// defaultBody builds the S(i1,...,id) placeholder call.
func defaultBody(r *core.Result) string {
	return "S(" + strings.Join(r.Nest.Indices(), ", ") + ");"
}

// closedForm returns the printed root of every recovered level of r,
// or an error when one has none. Results compiled in table or
// binary-search mode recover their indices at run time and have no
// radical to emit.
func closedForm(r *core.Result) ([]roots.Expr, error) {
	rts := make([]roots.Expr, r.C-1)
	for k := range rts {
		if rts[k] = r.Unranker.RootExpr(k); rts[k] == nil {
			return nil, fmt.Errorf("codegen: level %d (%s) has no closed-form root to emit: %w",
				k, r.SubNest.Loops[k].Index, faults.ErrNoConvenientRoot)
		}
	}
	return rts, nil
}

// recoveryC returns the C statements recovering the collapsed indices
// from pc, one per line, given the roots closedForm returned.
func recoveryC(r *core.Result, rts []roots.Expr) []string {
	var lines []string
	for k, e := range rts {
		lines = append(lines, fmt.Sprintf("%s = floor(creal(%s))%s;",
			r.SubNest.Loops[k].Index, roots.CString(e), PlusOffset(r.Unranker.Offset(k))))
	}
	// Last collapsed index: i = lb + (pc - r(prefix, lb)).
	last := r.SubNest.Loops[r.C-1]
	base := r.Unranker.RunStart()
	lines = append(lines, fmt.Sprintf("%s = %s + (pc - (%s));",
		last.Index, roots.PolyInt(last.Lower), roots.PolyInt(base)))
	return lines
}

// PlusOffset renders a rebase offset (unrank.Unranker.Offset) as a
// trailing " + d" or " - d", empty when zero. A root yields the index
// of the compiled, rebased nest; emitted code adds the offset after the
// floor, so that rounding near an integer can never carry across it.
func PlusOffset(d int64) string {
	switch {
	case d > 0:
		return fmt.Sprintf(" + %d", d)
	case d < 0:
		return fmt.Sprintf(" - %d", -d)
	}
	return ""
}

// incrementC returns the C statements advancing the collapsed indices to
// the lexicographic successor (valid for regular nests, as in Fig. 4).
func incrementC(r *core.Result) []string {
	var lines []string
	var rec func(k int) []string
	rec = func(k int) []string {
		l := r.SubNest.Loops[k]
		inc := []string{fmt.Sprintf("%s++;", l.Index)}
		if k == 0 {
			return inc
		}
		guard := fmt.Sprintf("if (%s >= %s) {", l.Index, roots.PolyInt(l.Upper))
		inner := rec(k - 1)
		var out []string
		out = append(out, inc...)
		out = append(out, guard)
		for _, s := range inner {
			out = append(out, "  "+s)
		}
		out = append(out, fmt.Sprintf("  %s = %s;", l.Index, roots.PolyInt(l.Lower)))
		out = append(out, "}")
		return out
	}
	lines = rec(r.C - 1)
	return lines
}

// innerLoopsC wraps body with the non-collapsed inner loops (levels
// C..depth-1) and returns the indented lines.
func innerLoopsC(r *core.Result, body string, indent string) []string {
	var lines []string
	depth := r.Nest.Depth()
	pad := indent
	for k := r.C; k < depth; k++ {
		l := r.Nest.Loops[k]
		lines = append(lines, fmt.Sprintf("%sfor (%s = %s ; %s < %s ; %s++)",
			pad, l.Index, roots.PolyInt(l.Lower), l.Index, roots.PolyInt(l.Upper), l.Index))
		pad += "  "
	}
	for _, bl := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		lines = append(lines, pad+bl)
	}
	return lines
}

// privateList returns the comma-separated private variable list.
func privateList(r *core.Result) string {
	return strings.Join(r.Nest.Indices(), ", ")
}

// EmitC renders the collapsed nest as C code in the requested scheme.
// A result without closed-form roots is an error (see closedForm).
func EmitC(r *core.Result, opts Options) (string, error) {
	rts, err := closedForm(r)
	if err != nil {
		return "", err
	}
	opts.fill()
	body := opts.Body
	if body == "" {
		body = defaultBody(r)
	}
	var b strings.Builder
	w := func(format string, args ...interface{}) { fmt.Fprintf(&b, format+"\n", args...) }
	total := roots.PolyInt(r.Total())

	switch opts.Scheme {
	case PerIteration:
		w("#pragma omp parallel for private(%s) schedule(%s)", privateList(r), opts.Schedule)
		w("for (pc = 1 ; pc <= %s ; pc++) {", total)
		for _, l := range recoveryC(r, rts) {
			w("  %s", l)
		}
		for _, l := range innerLoopsC(r, body, "  ") {
			w("%s", l)
		}
		w("}")

	case FirstIteration:
		w("first_iteration = 1;")
		w("#pragma omp parallel for private(%s) firstprivate(first_iteration) schedule(%s)",
			privateList(r), opts.Schedule)
		w("for (pc = 1 ; pc <= %s ; pc++) {", total)
		w("  if (first_iteration) {")
		for _, l := range recoveryC(r, rts) {
			w("    %s", l)
		}
		w("    first_iteration = 0;")
		w("  }")
		for _, l := range innerLoopsC(r, body, "  ") {
			w("%s", l)
		}
		for _, l := range incrementC(r) {
			w("  %s", l)
		}
		w("}")

	case Chunked:
		w("#pragma omp parallel for private(%s) schedule(static, %d)", privateList(r), opts.Chunk)
		w("for (pc = 1 ; pc <= %s ; pc++) {", total)
		w("  if ((pc-1) %% %d == 0) {", opts.Chunk)
		for _, l := range recoveryC(r, rts) {
			w("    %s", l)
		}
		w("  }")
		for _, l := range innerLoopsC(r, body, "  ") {
			w("%s", l)
		}
		for _, l := range incrementC(r) {
			w("  %s", l)
		}
		w("}")

	case SIMD:
		if r.C != r.Nest.Depth() {
			return "", fmt.Errorf("codegen: SIMD scheme requires all loops collapsed (c = depth)")
		}
		v := opts.VLength
		w("first_iteration = 1;")
		w("#pragma omp parallel for private(%s, v, T) firstprivate(first_iteration) schedule(%s)",
			privateList(r), opts.Schedule)
		w("for (pc = 1 ; pc <= %s ; pc += %d) {", total, v)
		w("  if (first_iteration) {")
		for _, l := range recoveryC(r, rts) {
			w("    %s", l)
		}
		w("    first_iteration = 0;")
		w("  }")
		w("  for (v = pc ; v <= min(pc+%d, %s) ; v++) {", v-1, total)
		w("    T[v-pc] = Indices(%s);", privateList(r))
		for _, l := range incrementC(r) {
			w("    %s", l)
		}
		w("  }")
		w("  #pragma omp simd")
		w("  for (v = pc ; v <= min(pc+%d, %s) ; v++) {", v-1, total)
		w("    %s", strings.ReplaceAll(body, "\n", "\n    "))
		w("  }")
		w("}")

	case Warp:
		if r.C != r.Nest.Depth() {
			return "", fmt.Errorf("codegen: warp scheme requires all loops collapsed (c = depth)")
		}
		W := opts.Warp
		w("/* parallel threads in a warp */")
		w("for (thread = 0 ; thread < %d ; thread++) {", W)
		w("  for (pc = thread+1 ; pc <= %s ; pc += %d) {", total, W)
		w("    if (pc == thread+1) {")
		for _, l := range recoveryC(r, rts) {
			w("      %s", l)
		}
		w("    }")
		for _, l := range innerLoopsC(r, body, "    ") {
			w("%s", l)
		}
		w("    for (inc = 0 ; inc < %d ; inc++) {", W)
		for _, l := range incrementC(r) {
			w("      %s", l)
		}
		w("    }")
		w("  }")
		w("}")

	default:
		return "", fmt.Errorf("codegen: unknown scheme %v", opts.Scheme)
	}
	return b.String(), nil
}
