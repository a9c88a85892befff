package core

import (
	"encoding/binary"

	"repro/internal/nest"
	"repro/internal/transform"
	"repro/internal/unrank"
)

// keyVersion leads every key, so a change of encoding never meets keys
// of the old one (dist journals persist them).
const keyVersion = 4

// Key returns the key of collapsing the c outermost loops of n under
// opts, and the canonical form it is read from: the band rebased to
// lower bound 0 wherever a lower bound is constant, in positional
// integer form (transform.Rebase). The key encodes that form's
// coefficient rows, the collapse count and the options that shape the
// compiled artifact (mode, verification, table size cap, after unrank's
// own normalization), each integer as a varint — exact, so equal keys
// are the same problem, and built without renaming a polynomial or
// rendering a name. Spellings of one nest that differ only in their
// names or in constant translations of their loops therefore share a
// key; rb.Offset tells them apart where that matters (dist journals).
//
// ok is false when the request is not cacheable: custom SampleParams
// bind root selection to user-chosen names and magnitudes, and an
// invalid nest, or one whose coefficients (inner loops included) or
// rebased constants leave int64, has no key.
func Key(n *nest.Nest, c int, opts unrank.Options) (key string, rb transform.Rebased, ok bool) {
	if opts.SampleParams != nil {
		return "", rb, false
	}
	if c < 1 || c > n.Depth() {
		return "", rb, false
	}
	// Rebasing the whole nest also checks the inner loops, which still
	// run; the band's canonical form is the prefix of the nest's.
	if rb, ok = transform.Rebase(n, n.Depth()); !ok {
		return "", rb, false
	}
	rb.Lower, rb.Upper, rb.Offset = rb.Lower[:c], rb.Upper[:c], rb.Offset[:c]
	opts = opts.Normalized()
	verify := int64(0)
	if opts.Verify {
		verify = 1
	}
	buf := make([]byte, 0, 16+8*c*(rb.NP+c+1))
	for _, v := range []int64{keyVersion, int64(rb.NP), int64(c), int64(opts.Mode), verify, int64(opts.TableMaxEntries)} {
		buf = binary.AppendVarint(buf, v)
	}
	for k := range rb.Lower {
		for _, row := range [2][]int64{rb.Lower[k], rb.Upper[k]} {
			for _, v := range row {
				buf = binary.AppendVarint(buf, v)
			}
		}
	}
	return string(buf), rb, true
}
