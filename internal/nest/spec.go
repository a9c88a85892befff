package nest

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/poly"
)

// FreeParams returns the nest parameters implied by loops: every
// identifier of a bound that is not a loop index, sorted by name.
func FreeParams(loops []Loop) []string {
	index := map[string]bool{}
	for _, l := range loops {
		index[l.Index] = true
	}
	set := map[string]bool{}
	for _, l := range loops {
		for _, v := range append(l.Lower.Vars(), l.Upper.Vars()...) {
			if !index[v] {
				set[v] = true
			}
		}
	}
	params := make([]string, 0, len(set))
	for p := range set {
		params = append(params, p)
	}
	sort.Strings(params)
	return params
}

// ParseSpec parses the one-line nest grammar of the command-line tools,
// semicolon-separated loops "index=lower:upper" (upper exclusive), e.g.
// "i=0:N-1; j=i+1:N". Empty parts are skipped and the parameters are
// the bounds' free identifiers (FreeParams).
func ParseSpec(spec string) (*Nest, error) {
	var loops []Loop
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, bounds, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("loop %q: want index=lo:hi", part)
		}
		loSrc, hiSrc, ok := strings.Cut(bounds, ":")
		if !ok {
			return nil, fmt.Errorf("loop %q: want index=lo:hi", part)
		}
		lo, err := poly.Parse(loSrc)
		if err != nil {
			return nil, fmt.Errorf("loop %q lower: %w", part, err)
		}
		hi, err := poly.Parse(hiSrc)
		if err != nil {
			return nil, fmt.Errorf("loop %q upper: %w", part, err)
		}
		loops = append(loops, Loop{Index: strings.TrimSpace(name), Lower: lo, Upper: hi})
	}
	return New(FreeParams(loops), loops...)
}
