package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests compare
// against what the program prints.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics requires got to hold exactly the declared names, each
// with its declared unit.
func checkMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		var names []string
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("%s: %d metrics %v, BENCHMARK.json declares %d", what, len(got), names, len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: metric %s unit %q, declared %q", what, m.Name, g.Unit, m.Unit)
		}
	}
}

// TestCorruptedAnswerLowersSuccessRate is the oracle self-check: every
// workload, run clean, answers everything correctly; with one answer
// per round falsified, its checker must notice.
func TestCorruptedAnswerLowersSuccessRate(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			clean, err := run(config{workload: wl.Name, seed: 1, seconds: 0.01})
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, "untraced", clean.Metrics, spec.EndToEnd)
			if !clean.Correct || clean.Metrics["success_rate"].Value != 1 {
				t.Errorf("clean run: correct=%v success_rate=%v", clean.Correct, clean.Metrics["success_rate"].Value)
			}
			bad, err := run(config{workload: wl.Name, seed: 1, seconds: 0.01, corrupt: true})
			if err != nil {
				t.Fatal(err)
			}
			if bad.Correct || bad.Failed < minRounds || bad.Metrics["success_rate"].Value >= 1 {
				t.Errorf("corrupted run: correct=%v failed=%d success_rate=%v; want one failure per round",
					bad.Correct, bad.Failed, bad.Metrics["success_rate"].Value)
			}
		})
	}
}

// TestTracedRunReportsEveryLayer runs the cheapest workload traced and
// requires every declared per-layer metric, and a Chrome trace file.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	spec := loadSpec(t)
	out := t.TempDir() + "/trace.json"
	res, err := run(config{workload: "compile", seed: 1, seconds: 0.01, trace: true, traceOut: out})
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, "traced", res.Metrics, spec.PerLayer)
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("trace file: %d events, err %v", len(doc.TraceEvents), err)
	}
}

// TestLatencyBlocks checks that blocks are whole rounds of at least
// blockOps operations, that a short tail joins the last block, and that
// a run too short for one block is a single block.
func TestLatencyBlocks(t *testing.T) {
	lat := make([]float64, 2500)
	var ends []int
	for e := 300; e < len(lat); e += 300 {
		ends = append(ends, e)
	}
	ends = append(ends, len(lat))
	var sizes []int
	for _, b := range latencyBlocks(lat, ends) {
		sizes = append(sizes, len(b))
	}
	if len(sizes) != 2 || sizes[0] != 1200 || sizes[1] != 1300 {
		t.Errorf("block sizes %v, want [1200 1300]", sizes)
	}
	if b := latencyBlocks(lat[:900], []int{300, 600, 900}); len(b) != 1 || len(b[0]) != 900 {
		t.Errorf("short run: %d blocks", len(b))
	}
}
