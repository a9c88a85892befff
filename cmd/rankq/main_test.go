package main

import (
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/unrank"
)

func captureRun(t *testing.T, nestSpec string, params paramFlags, args []string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	ferr := run(nestSpec, params, args)
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

const triSpec = "i=0:N-1; j=i+1:N"

func TestRankqTotal(t *testing.T) {
	out, err := captureRun(t, triSpec, paramFlags{"N": 10}, []string{"total"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "45" {
		t.Errorf("total = %q", out)
	}
}

func TestRankqRankUnrankRoundTrip(t *testing.T) {
	out, err := captureRun(t, triSpec, paramFlags{"N": 10}, []string{"rank", "3", "5"})
	if err != nil {
		t.Fatal(err)
	}
	rank := strings.TrimSpace(out)
	out, err = captureRun(t, triSpec, paramFlags{"N": 10}, []string{"unrank", rank})
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "i=3 j=5" {
		t.Errorf("unrank(%s) = %q", rank, out)
	}
}

func TestRankqList(t *testing.T) {
	out, err := captureRun(t, "i=0:3; j=i:3", paramFlags{}, []string{"list"})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // (0,0)(0,1)(0,2)(1,1)(1,2)(2,2)
		t.Errorf("list lines = %d:\n%s", len(lines), out)
	}
}

func TestRankqErrors(t *testing.T) {
	cases := []struct {
		spec   string
		params paramFlags
		args   []string
	}{
		{"", nil, []string{"total"}},
		{"i=0", nil, []string{"total"}},
		{"i0:N", nil, []string{"total"}},
		{triSpec, paramFlags{"N": 10}, []string{}},
		{triSpec, paramFlags{"N": 10}, []string{"bogus"}},
		{triSpec, paramFlags{"N": 10}, []string{"rank", "1"}},
		{triSpec, paramFlags{"N": 10}, []string{"rank", "5", "5"}}, // not in domain
		{triSpec, paramFlags{"N": 10}, []string{"unrank"}},
		{triSpec, paramFlags{"N": 10}, []string{"unrank", "9999"}},
		{triSpec, paramFlags{"N": 10}, []string{"unrank", "x"}},
		{triSpec, nil, []string{"total"}}, // missing param binding
		{"i=0:i^2", nil, []string{"total"}},
	}
	for _, c := range cases {
		if _, err := captureRun(t, c.spec, c.params, c.args); err == nil {
			t.Errorf("spec %q args %v: expected error", c.spec, c.args)
		}
	}
}

func TestParamFlags(t *testing.T) {
	p := paramFlags{}
	if err := p.Set("N=10"); err != nil || p["N"] != 10 {
		t.Errorf("Set: %v, %v", p, err)
	}
	if err := p.Set(" M = 5 "); err != nil || p["M"] != 5 {
		t.Errorf("Set with spaces: %v, %v", p, err)
	}
	if err := p.Set("bad"); err == nil {
		t.Error("bad flag accepted")
	}
	if err := p.Set("N=x"); err == nil {
		t.Error("non-integer accepted")
	}
	if p.String() == "" {
		t.Error("empty String")
	}
}

func TestRankqHugeTotal(t *testing.T) {
	// N = 2^32 makes the count 2^64: beyond the int64 pc range, so
	// unranking is refused, but "total" still answers exactly from the
	// counting polynomial over big integers.
	out, err := captureRun(t, "i=0:N; j=0:N", paramFlags{"N": 1 << 32}, []string{"total"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "18446744073709551616" {
		t.Errorf("huge total = %q, want 2^64", out)
	}
	// Everything else must still refuse the overflowing domain.
	if _, err := captureRun(t, "i=0:N; j=0:N", paramFlags{"N": 1 << 32}, []string{"unrank", "5"}); err == nil {
		t.Error("unrank on an overflowing domain should fail")
	}
}

// TestRankqMode checks the -mode plumbing: breakpoint-table and
// binary-search modes answer unrank queries identically to the
// closed-form default, a degree-5 simplex (beyond radical solvability,
// so the closed-form build must reject it) still unranks under -mode
// table, and an unknown spelling is the typed faults.ErrUnknownMode.
func TestRankqMode(t *testing.T) {
	setMode := func(s string) {
		t.Helper()
		m, err := unrank.ParseMode(s)
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", s, err)
		}
		recoveryMode = m
	}
	defer func() { recoveryMode = unrank.ModeClosedForm }()

	want := ""
	for _, mode := range []string{"closed-form", "search", "table"} {
		setMode(mode)
		out, err := captureRun(t, triSpec, paramFlags{"N": 10}, []string{"unrank", "29"})
		if err != nil {
			t.Fatalf("-mode %s: %v", mode, err)
		}
		if want == "" {
			want = out
		} else if out != want {
			t.Errorf("-mode %s unrank = %q, closed-form said %q", mode, out, want)
		}
	}

	const simplex = "a=0:N; b=0:a+1; c=0:b+1; d=0:c+1; e=0:d+1"
	setMode("closed-form")
	if _, err := captureRun(t, simplex, paramFlags{"N": 10}, []string{"unrank", "500"}); !errors.Is(err, faults.ErrDegreeTooHigh) {
		t.Fatalf("degree-5 closed-form err = %v, want ErrDegreeTooHigh", err)
	}
	setMode("table")
	out, err := captureRun(t, simplex, paramFlags{"N": 10}, []string{"unrank", "500"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "a=7 b=4 c=1 d=1 e=0" {
		t.Errorf("table unrank 500 = %q", out)
	}

	if _, err := unrank.ParseMode("bogus"); !errors.Is(err, faults.ErrUnknownMode) {
		t.Errorf("ParseMode(bogus) = %v, want ErrUnknownMode", err)
	}
}
