package main

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestRunSmallSweep(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, 2, 1, 2, true, true); err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "stress ok: 2 cases") {
		t.Errorf("summary line missing or wrong:\n%s", out)
	}
	// Injected root faults push every float64 floor beyond correction
	// range, so closed-form recoveries must fall back to exact search.
	m := regexp.MustCompile(`stress ok: .*fallbacks (\d+), searches (\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("summary line lacks fallback/search counters:\n%s", out)
	}
	fallbacks, _ := strconv.Atoi(m[1])
	searches, _ := strconv.Atoi(m[2])
	if fallbacks == 0 || searches < fallbacks {
		t.Errorf("faulted sweep: fallbacks %d, searches %d; want fallbacks > 0 and every fallback searched:\n%s",
			fallbacks, searches, out)
	}
}

func TestRunRejectsBadSeeds(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, 0, 1, 1, false, false); err == nil {
		t.Error("run with -seeds 0 should fail")
	}
}
