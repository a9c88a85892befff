package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func captureRun(t *testing.T, o options) (string, error) {
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
	ferr := run(o)
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

func quickOptions(fig string) options {
	return options{
		fig:     fig,
		threads: 12,
		quick:   true,
		chunks:  12,
		fig2N:   200,
		fig2T:   5,
		kernel:  "correlation",
	}
}

func TestBenchfigFig2(t *testing.T) {
	out, err := captureRun(t, quickOptions("2"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Fig. 2") || !strings.Contains(out, "thread  0") {
		t.Errorf("fig 2 output:\n%s", out)
	}
}

func TestBenchfigFig8(t *testing.T) {
	out, err := captureRun(t, quickOptions("8"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "pc=10") {
		t.Errorf("fig 8 output:\n%s", out)
	}
}

func TestBenchfigFig9Quick(t *testing.T) {
	out, err := captureRun(t, quickOptions("9"))
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Fig. 9", "correlation_tiled", "ltmp", "gain vs dyn"} {
		if !strings.Contains(out, frag) {
			t.Errorf("fig 9 output missing %q", frag)
		}
	}
}

func TestBenchfigFig10Quick(t *testing.T) {
	out, err := captureRun(t, quickOptions("10"))
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Fig. 10", "symm_full", "overhead(%)"} {
		if !strings.Contains(out, frag) {
			t.Errorf("fig 10 output missing %q", frag)
		}
	}
}

// TestBenchfigScalingQuick checks that -fig scaling is Fig. 9 with one
// row per kernel and thread count of scalingThreads.
func TestBenchfigScalingQuick(t *testing.T) {
	out, err := captureRun(t, quickOptions("scaling"))
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 9 && strings.HasSuffix(f[8], "x") {
			rows++
		}
	}
	if want := 11 * len(scalingThreads); rows != want || !strings.Contains(out, "Fig. 9") {
		t.Errorf("-fig scaling printed %d rows, want %d:\n%s", rows, want, out)
	}
}

func TestBenchfigImbalanceQuick(t *testing.T) {
	o := quickOptions("imbalance")
	o.threads = 4
	o.traceOut = filepath.Join(t.TempDir(), "trace.json")
	out, err := captureRun(t, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"Load imbalance of the collapsed correlation kernel",
		"static", "dynamic", "guided",
		"iter max/mu", "per-thread breakdown",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("imbalance output missing %q:\n%s", frag, out)
		}
	}
	data, err := os.ReadFile(o.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
}

// TestBenchfigDistQuick runs the sharded-execution study and checks its
// JSON document carries the suite and row names the dist gate diffs
// against BENCH_PR8.json.
func TestBenchfigDistQuick(t *testing.T) {
	o := quickOptions("dist")
	o.jsonOut = filepath.Join(t.TempDir(), "dist.json")
	out, err := captureRun(t, o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sharded execution") || !strings.Contains(out, "chaos-kill") {
		t.Errorf("dist output:\n%s", out)
	}
	data, err := os.ReadFile(o.jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Suite string `json:"suite"`
		Rows  []struct {
			Case   string `json:"case"`
			Metric string `json:"metric"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Suite != "dist" {
		t.Fatalf("suite = %q, want dist", doc.Suite)
	}
	seen := map[string]bool{}
	for _, r := range doc.Rows {
		seen[r.Case+" "+r.Metric] = true
	}
	for _, c := range []string{"dist:clean/w=1", "dist:journal", "dist:chaos-kill", "dist:resume"} {
		if !seen[c+" miter_per_sec"] || !seen[c+" overhead_pct"] {
			t.Errorf("document lacks the rows of case %s: %v", c, seen)
		}
	}
}

func TestBenchfigUnknownFig(t *testing.T) {
	for _, fig := range []string{"7", "ablation"} {
		_, err := captureRun(t, quickOptions(fig))
		if err == nil || !strings.Contains(err.Error(), "unknown figure") {
			t.Fatalf("-fig %s not rejected: %v", fig, err)
		}
	}
}
