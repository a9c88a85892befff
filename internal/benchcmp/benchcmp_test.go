package benchcmp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// synthetic builds an overhead-style document whose ns rows are scaled
// by nsScale (>1 = slower) and whose speedup rows shrink by the same
// factor, for the named cases only.
func synthetic(nsScale float64, scaled ...string) *experiments.BenchDoc {
	doc := &experiments.BenchDoc{Suite: "overhead", Meta: experiments.NewBenchMeta()}
	for _, c := range []string{"correlation", "syrk"} {
		f := 1.0
		for _, s := range scaled {
			if s == c {
				f = nsScale
			}
		}
		p := map[string]int64{"N": 100}
		doc.Rows = append(doc.Rows,
			experiments.BenchRow{Case: c, Params: p, Metric: "original_ns_per_iter", Better: experiments.Lower, Value: 1.5 * f},
			experiments.BenchRow{Case: c, Params: p, Metric: "per_iter_ns[static]", Better: experiments.Lower, Value: 12 * f},
			experiments.BenchRow{Case: c, Params: p, Metric: "ranges_ns[static]", Better: experiments.Lower, Value: 3 * f},
			experiments.BenchRow{Case: c, Params: p, Metric: "speedup_ranges[static]", Better: experiments.Higher, Value: 4 / f})
	}
	return doc
}

// decode round-trips doc through its JSON form.
func decode(t *testing.T, doc *experiments.BenchDoc) *experiments.BenchDoc {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// row returns the named row of doc, or nil.
func row(doc *experiments.BenchDoc, c, metric string) *experiments.BenchRow {
	for i := range doc.Rows {
		if doc.Rows[i].Case == c && doc.Rows[i].Metric == metric {
			return &doc.Rows[i]
		}
	}
	return nil
}

func TestIdenticalRunsNoRegression(t *testing.T) {
	old := decode(t, synthetic(1))
	cur := decode(t, synthetic(1))
	rep, err := Compare(old, cur, Options{ThresholdPct: 20})
	if err != nil {
		t.Fatal(err)
	}
	if regs := rep.Regressions(); len(regs) != 0 {
		t.Errorf("identical runs produced regressions: %v", regs)
	}
	if len(rep.Deltas) != len(old.Rows) {
		t.Errorf("identical runs compared %d of %d rows", len(rep.Deltas), len(old.Rows))
	}
	if len(rep.Skipped) != 0 {
		t.Errorf("identical runs skipped: %v", rep.Skipped)
	}
}

func TestInjectedRegressionFlagged(t *testing.T) {
	old := decode(t, synthetic(1))
	cur := decode(t, synthetic(1.25, "syrk")) // 25% slower syrk
	rep, err := Compare(old, cur, Options{ThresholdPct: 20})
	if err != nil {
		t.Fatal(err)
	}
	regs := rep.Regressions()
	if len(regs) == 0 {
		t.Fatal("25% regression with 20% threshold not flagged")
	}
	for _, d := range regs {
		if d.Case != "syrk" {
			t.Errorf("regression attributed to %s/%s, only syrk was degraded", d.Case, d.Metric)
		}
		if d.WorsePct <= 20 {
			t.Errorf("%s/%s WorsePct = %.1f, want > 20", d.Case, d.Metric, d.WorsePct)
		}
	}
	// The degraded speedup (4 -> 3.2, 20% down) sits exactly at the
	// threshold, so the flagged rows are the ns ones (25% up).
	for _, d := range rep.Deltas {
		if d.Case == "correlation" && d.Regression {
			t.Errorf("untouched case flagged: %+v", d)
		}
	}
}

func TestBelowThresholdPasses(t *testing.T) {
	old := decode(t, synthetic(1))
	cur := decode(t, synthetic(1.10, "syrk")) // 10% slower
	rep, err := Compare(old, cur, Options{ThresholdPct: 20})
	if err != nil {
		t.Fatal(err)
	}
	if regs := rep.Regressions(); len(regs) != 0 {
		t.Errorf("10%% worsening flagged at 20%% threshold: %v", regs)
	}
}

func TestSpeedupDirection(t *testing.T) {
	// Higher-is-better rows regress when they go DOWN; improvements
	// must not flag.
	old := synthetic(1)
	cur := synthetic(1)
	row(cur, "correlation", "speedup_ranges[static]").Value = 2 // was 4: halved
	row(cur, "syrk", "speedup_ranges[static]").Value = 9        // was 4: better
	rep, err := Compare(decode(t, old), decode(t, cur), Options{ThresholdPct: 20})
	if err != nil {
		t.Fatal(err)
	}
	var flagged []string
	for _, d := range rep.Regressions() {
		flagged = append(flagged, d.Case+"/"+d.Metric)
	}
	if len(flagged) != 1 || flagged[0] != "correlation/speedup_ranges[static]" {
		t.Errorf("flagged = %v, want exactly correlation's halved speedup", flagged)
	}
}

func TestParamsMismatchSkipped(t *testing.T) {
	old := synthetic(1)
	cur := synthetic(3, "syrk") // would be a huge regression...
	for i := range cur.Rows {
		if cur.Rows[i].Case == "syrk" {
			cur.Rows[i].Params = map[string]int64{"N": 500}
		}
	}
	rep, err := Compare(decode(t, old), decode(t, cur), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if regs := rep.Regressions(); len(regs) != 0 {
		t.Errorf("param-mismatched rows compared anyway: %v", regs)
	}
	found := false
	for _, s := range rep.Skipped {
		if strings.HasPrefix(s, "syrk/") && strings.Contains(s, "params differ") {
			found = true
		}
	}
	if !found {
		t.Errorf("no params-differ skip note; skipped = %v", rep.Skipped)
	}
}

func TestMetricFilter(t *testing.T) {
	old := decode(t, synthetic(1))
	cur := decode(t, synthetic(1.25, "syrk"))
	cur.Rows = append(cur.Rows, experiments.BenchRow{Case: "syrk", Params: map[string]int64{"N": 100},
		Metric: "speedup_new", Better: experiments.Higher, Value: 1})
	rep, err := Compare(old, cur, Options{ThresholdPct: 20, MetricFilter: []string{"speedup"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Deltas {
		if !strings.Contains(d.Metric, "speedup") {
			t.Errorf("filter leaked metric %s", d.Metric)
		}
	}
	if len(rep.Deltas) != 2 {
		t.Errorf("filter matched %d rows, want the 2 speedups", len(rep.Deltas))
	}
	// A selected row with no baseline is noted as new, not compared.
	if len(rep.Skipped) != 1 || !strings.Contains(rep.Skipped[0], "syrk/speedup_new: new row") {
		t.Errorf("skipped = %v, want only the new speedup row", rep.Skipped)
	}
}

// TestSchemaV1Document: a pre-meta (v1) document is refused with an
// error naming its version.
func TestSchemaV1Document(t *testing.T) {
	v1 := `{"suite": "overhead", "go_version": "go1.21.0", "gomaxprocs": 8,
		"kernels": [{"kernel": "correlation", "params": {"N": 100}, "original_ns_per_iter": 1.5}]}`
	_, err := Decode(strings.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "schema version 1") {
		t.Errorf("v1 document: err = %v, want a refusal naming version 1", err)
	}
}

// TestSchemaV2DocumentRefused: a schema v2 document (meta block, but
// the suite's own nested shape) is refused with an error naming its
// version, even though its suite and meta parse.
func TestSchemaV2DocumentRefused(t *testing.T) {
	v2 := `{"suite": "invert", "meta": {"schema_version": 2, "go_version": "go1.24.0"},
		"nests": [{"nest": "triangular2", "params": {"N": 4096}, "chunks": []}]}`
	_, err := Decode(strings.NewReader(v2))
	if err == nil || !strings.Contains(err.Error(), "schema version 2") {
		t.Errorf("v2 document: err = %v, want a refusal naming version 2", err)
	}
}

func TestSuiteMismatch(t *testing.T) {
	o := decode(t, synthetic(1))
	c := &experiments.BenchDoc{Suite: "compile"}
	if _, err := Compare(o, c, Options{}); err == nil {
		t.Error("suite mismatch not rejected")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"no":"suite"}`)); err == nil {
		t.Error("suiteless document accepted")
	}
	if _, err := Decode(strings.NewReader(`not json`)); err == nil {
		t.Error("non-JSON accepted")
	}
	noDir := `{"suite": "overhead", "meta": {"schema_version": 3},
		"rows": [{"case": "syrk", "metric": "x", "better": "up", "value": 1}]}`
	if _, err := Decode(strings.NewReader(noDir)); err == nil {
		t.Error("row without a valid direction accepted")
	}
}

func TestRender(t *testing.T) {
	old := decode(t, synthetic(1))
	cur := decode(t, synthetic(1.5, "syrk"))
	rep, err := Compare(old, cur, Options{ThresholdPct: 20})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Render(&buf, rep)
	out := buf.String()
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "syrk") {
		t.Errorf("render missing regression flag:\n%s", out)
	}
}

// gateTable reads the Makefile's gate table: per gated suite, its
// committed baseline and its metric filter.
func gateTable(t *testing.T) (bases, filters map[string]string) {
	t.Helper()
	mk, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	column := func(name string) map[string]string {
		out := map[string]string{}
		re := regexp.MustCompile(`(?m)^GATE_` + name + `_(\w+)\s*=\s*(\S+)\s*$`)
		for _, m := range re.FindAllStringSubmatch(string(mk), -1) {
			out[m[1]] = m[2]
		}
		return out
	}
	return column("BASE"), column("METRICS")
}

// TestCommittedBaselines loads every committed BENCH_*.json and, for
// each suite of the Makefile's gate table, checks that the gate's
// metric filter selects at least one row of its baseline — so a
// baseline that silently lost its gated rows fails here, not as a
// vacuous "0 comparisons" gate.
func TestCommittedBaselines(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed baselines found (err %v)", err)
	}
	docs := map[string]*experiments.BenchDoc{}
	for _, p := range paths {
		doc, err := Load(p)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		if len(doc.Rows) == 0 {
			t.Errorf("%s: no rows", p)
		}
		docs[filepath.Base(p)] = doc
	}
	bases, filters := gateTable(t)
	if len(bases) < 5 {
		t.Fatalf("Makefile gate table lists %d baselines, want every gated suite: %v", len(bases), bases)
	}
	for suite, base := range bases {
		doc := docs[base]
		if doc == nil {
			t.Errorf("gate-%s: baseline %s not loaded", suite, base)
			continue
		}
		if doc.Suite != suite {
			t.Errorf("gate-%s: baseline %s holds suite %q", suite, base, doc.Suite)
		}
		filter, ok := filters[suite]
		if !ok {
			t.Errorf("gate-%s: no metric filter", suite)
			continue
		}
		selected := 0
		for _, r := range doc.Rows {
			if metricSelected(r.Metric, strings.Split(filter, ",")) {
				selected++
			}
		}
		if selected == 0 {
			t.Errorf("gate-%s: filter %q selects no row of %s", suite, filter, base)
		}
	}
}

// checkBaseline compares a suite's committed baseline, under filter,
// with an exact copy (no regression) and with a copy in which every
// row is twice as bad in its own direction (every comparable row
// regresses, so each row's direction is the one the gate needs).
func checkBaseline(t *testing.T, suite, base, filter string) {
	t.Helper()
	old, err := Load("../../" + base)
	if err != nil {
		t.Fatal(err)
	}
	if old.Suite != suite {
		t.Fatalf("%s holds suite %q, want %q", base, old.Suite, suite)
	}
	opts := Options{ThresholdPct: 20, MetricFilter: strings.Split(filter, ",")}
	same := *old
	same.Rows = append([]experiments.BenchRow(nil), old.Rows...)
	rep, err := Compare(old, &same, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Deltas) == 0 || len(rep.Regressions()) != 0 || len(rep.Skipped) != 0 {
		t.Fatalf("copy of %s: %d comparisons, %d regressions, skipped %v",
			base, len(rep.Deltas), len(rep.Regressions()), rep.Skipped)
	}
	worse := same
	worse.Rows = append([]experiments.BenchRow(nil), old.Rows...)
	for i := range worse.Rows {
		if worse.Rows[i].Better == experiments.Higher {
			worse.Rows[i].Value /= 2
		} else {
			worse.Rows[i].Value *= 2
		}
	}
	if rep, err = Compare(old, &worse, opts); err != nil {
		t.Fatal(err)
	}
	if n := len(rep.Regressions()); n == 0 || n != len(rep.Deltas) {
		t.Errorf("2x-worse copy of %s: %d of %d comparisons regressed", base, n, len(rep.Deltas))
	}
}

// gatedBaseline runs checkBaseline on a gated suite's Makefile entry.
func gatedBaseline(t *testing.T, suite string) {
	t.Helper()
	bases, filters := gateTable(t)
	if bases[suite] == "" {
		t.Fatalf("no gate-%s in the Makefile's gate table", suite)
	}
	checkBaseline(t, suite, bases[suite], filters[suite])
}

// The compile suite has no gate; its whole baseline is checked.
func TestCompileSuite(t *testing.T)  { checkBaseline(t, "compile", "BENCH_PR5.json", "") }
func TestServeSuite(t *testing.T)    { gatedBaseline(t, "serve") }
func TestDistSuite(t *testing.T)     { gatedBaseline(t, "dist") }
func TestInvertSuite(t *testing.T)   { gatedBaseline(t, "invert") }
func TestAutotuneSuite(t *testing.T) { gatedBaseline(t, "autotune") }
