package nest

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseSpec pins the command-line nest grammar: the error text of
// every malformed loop, and parameters inferred from the bounds' free
// identifiers in sorted order, whatever order they appear in.
func TestParseSpec(t *testing.T) {
	for _, c := range []struct {
		spec    string
		params  []string
		indices []string
		err     string // substring of the error; "" means success
	}{
		{spec: "i=0:N-1; j=i+1:N", params: []string{"N"}, indices: []string{"i", "j"}},
		{spec: " i = 0 : N ;; j = M : i+K ; ", params: []string{"K", "M", "N"}, indices: []string{"i", "j"}},
		{spec: "a=0:Z; b=Y:a+X; c=b:W", params: []string{"W", "X", "Y", "Z"}, indices: []string{"a", "b", "c"}},
		{spec: "i=0:3; j=i:3", params: []string{}, indices: []string{"i", "j"}},
		{spec: "i=0", err: `loop "i=0": want index=lo:hi`},
		{spec: "i0:N", err: `loop "i0:N": want index=lo:hi`},
		{spec: "i=0:N; j=(:N", err: `loop "j=(:N" lower: `},
		{spec: "i=0:N; j=0:N+*", err: `loop "j=0:N+*" upper: `},
		{spec: "i=0:i^2", err: "non-affine bound"},
		{spec: "", err: "empty nest"},
	} {
		n, err := ParseSpec(c.spec)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("ParseSpec(%q) err = %v, want it to contain %q", c.spec, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.spec, err)
			continue
		}
		if got := append([]string{}, n.Params...); !reflect.DeepEqual(got, c.params) {
			t.Errorf("ParseSpec(%q) params %q, want %q", c.spec, got, c.params)
		}
		if got := n.Indices(); !reflect.DeepEqual(got, c.indices) {
			t.Errorf("ParseSpec(%q) indices %q, want %q", c.spec, got, c.indices)
		}
	}
}
