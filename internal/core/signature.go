package core

import (
	"fmt"
	"strings"

	"repro/internal/nest"
	"repro/internal/unrank"
)

// NestSignature returns a canonical structural signature of collapsing
// the c outermost loops of n under opts: two collapse requests have equal
// signatures exactly when they are the same problem modulo the spelling
// of parameter and iterator names. Canonicalization is positional
// α-renaming — parameters become p0, p1, … in declaration order and
// iterators i0, i1, … outermost-first — after which the bound polynomials
// render deterministically (poly.String orders monomials canonically).
// Options that shape the compiled artifact (mode, verification, table
// size cap) are part of the signature, after unrank's own normalization;
// CompileWorkers is not, because unrank ignores it.
//
// ok is false when the request is not cacheable: custom SampleParams
// bind semantics to user-chosen names and magnitudes that positional
// renaming cannot canonicalize, and an invalid nest has no signature.
func NestSignature(n *nest.Nest, c int, opts unrank.Options) (sig string, ok bool) {
	if opts.SampleParams != nil {
		return "", false
	}
	if err := n.Validate(); err != nil {
		return "", false
	}
	if c < 1 || c > n.Depth() {
		return "", false
	}
	opts = opts.Normalized()
	m := make(map[string]string, len(n.Params)+c)
	for i, p := range n.Params {
		m[p] = fmt.Sprintf("p%d", i)
	}
	for i, l := range n.Loops[:c] {
		m[l.Index] = fmt.Sprintf("i%d", i)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "v3|np=%d|c=%d|mode=%d|verify=%t|tbl=%d",
		len(n.Params), c, opts.Mode, opts.Verify, opts.TableMaxEntries)
	for _, l := range n.Loops[:c] {
		b.WriteString("|[")
		b.WriteString(l.Lower.Rename(m).String())
		b.WriteByte(';')
		b.WriteString(l.Upper.Rename(m).String())
		b.WriteByte(')')
	}
	return b.String(), true
}
