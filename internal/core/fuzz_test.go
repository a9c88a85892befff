package core

import (
	"testing"

	"repro/internal/nest"
	"repro/internal/poly"
	"repro/internal/unrank"
)

// FuzzNestSignature checks the nest signature's (Key's) defining
// property on arbitrary bound expressions: α-renaming every parameter
// and iterator never changes the key (nor cacheability), and key
// computation never panics; and whenever the key exists the nest is
// valid and its canonical form is a valid nest with the same point
// count — a collision here would make the collapse cache serve one
// nest's artifact for a structurally different nest.
func FuzzNestSignature(f *testing.F) {
	f.Add("0", "N-1", "i+1", "N", uint8(2))
	f.Add("0", "N", "0", "i+1", uint8(2))
	f.Add("i", "2*N", "i-1", "N+i", uint8(1))
	f.Add("0", "N^2", "3*i", "N*i", uint8(2))
	f.Fuzz(func(t *testing.T, lo1, hi1, lo2, hi2 string, cc uint8) {
		bounds := make([]*poly.Poly, 0, 4)
		for _, s := range []string{lo1, hi1, lo2, hi2} {
			p, err := poly.Parse(s)
			if err != nil {
				return
			}
			bounds = append(bounds, p)
		}
		n1 := &nest.Nest{
			Params: []string{"N"},
			Loops: []nest.Loop{
				{Index: "i", Lower: bounds[0], Upper: bounds[1]},
				{Index: "j", Lower: bounds[2], Upper: bounds[3]},
			},
		}
		if err := n1.Validate(); err != nil {
			return
		}
		ren := map[string]string{"N": "Q", "i": "u", "j": "v"}
		n2 := &nest.Nest{
			Params: []string{"Q"},
			Loops: []nest.Loop{
				{Index: "u", Lower: bounds[0].Rename(ren), Upper: bounds[1].Rename(ren)},
				{Index: "v", Lower: bounds[2].Rename(ren), Upper: bounds[3].Rename(ren)},
			},
		}
		c := int(cc)%2 + 1
		s1, rb, ok1 := Key(n1, c, unrank.Options{})
		s2, _, ok2 := Key(n2, c, unrank.Options{})
		if ok1 != ok2 {
			t.Fatalf("cacheability differs under renaming: %v vs %v", ok1, ok2)
		}
		if s1 != s2 {
			t.Fatalf("signature not α-invariant (c=%d):\n  %q\n  %q", c, s1, s2)
		}
		if !ok1 {
			return
		}
		canon := rb.Nest()
		if err := canon.Validate(); err != nil {
			t.Fatalf("canonical form of a keyed nest invalid: %v\n%s", err, canon)
		}
		for _, row := range append(rb.Lower, rb.Upper...) {
			for _, v := range row {
				if v < -50 || v > 50 {
					return // keep the enumeration below small
				}
			}
		}
		sub := &nest.Nest{Params: n1.Params, Loops: n1.Loops[:c]}
		for _, N := range []int64{0, 3, 6} {
			want := sub.MustBind(map[string]int64{"N": N})
			if want.CheckRegular() != nil {
				continue
			}
			got := canon.MustBind(map[string]int64{"p0": N})
			if a, b := want.Count(), got.Count(); a != b {
				t.Fatalf("N=%d: canonical form has %d points, nest %d", N, b, a)
			}
		}
	})
}
