// Package benchcmp compares two BENCH_*.json documents of the same
// suite and flags regressions beyond a threshold. It is the engine
// behind cmd/benchdiff and the `make gate-<suite>` regression gates.
//
// Every suite writes one flat document shape, experiments.BenchDoc.
// Rows pair by (case, metric); a pair whose params differ is skipped
// with a note instead of producing an apples-to-oranges delta. Each row
// carries its own direction: costs regress when they go up, ratios and
// throughputs when they go down. Only documents of the current
// experiments.BenchSchemaVersion load.
package benchcmp

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/experiments"
)

// Load reads and decodes one benchmark document from path.
func Load(path string) (*experiments.BenchDoc, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	doc, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// Decode decodes one benchmark document, refusing other schema
// versions and rows without a direction.
func Decode(r io.Reader) (*experiments.BenchDoc, error) {
	var doc experiments.BenchDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("not a benchmark document: %w", err)
	}
	if doc.Suite == "" {
		return nil, fmt.Errorf("document has no suite field")
	}
	if v := doc.Meta.SchemaVersion; v != experiments.BenchSchemaVersion {
		if v == 0 {
			v = 1 // version 1 documents had no meta block
		}
		return nil, fmt.Errorf("schema version %d is not supported (want %d): re-record the baseline",
			v, experiments.BenchSchemaVersion)
	}
	for _, row := range doc.Rows {
		if row.Better != experiments.Lower && row.Better != experiments.Higher {
			return nil, fmt.Errorf("%s/%s: direction %q is neither %q nor %q",
				row.Case, row.Metric, row.Better, experiments.Lower, experiments.Higher)
		}
	}
	return &doc, nil
}

// Options configure a comparison.
type Options struct {
	// ThresholdPct is the allowed worsening, percent (20 = a metric may
	// be up to 20% worse before it counts as a regression).
	ThresholdPct float64
	// MetricFilter, when non-empty, restricts the comparison to metric
	// names containing any of these substrings (e.g. only "speedup"
	// metrics for a machine-independent gate).
	MetricFilter []string
}

// Delta is one row's old-vs-new comparison. WorsePct is the signed
// worsening in percent — positive means the new run is worse in the
// row's bad direction, regardless of which direction that is.
type Delta struct {
	Case         string
	Metric       string
	Old, New     float64
	WorsePct     float64
	ThresholdPct float64
	Better       string
	Regression   bool
}

// Report is the outcome of one comparison.
type Report struct {
	Suite   string
	Deltas  []Delta
	Skipped []string // rows not compared, with reasons
}

// Regressions returns only the deltas beyond threshold.
func (r *Report) Regressions() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}

// Compare diffs the selected rows of two documents of the same suite.
func Compare(oldDoc, newDoc *experiments.BenchDoc, opts Options) (*Report, error) {
	if oldDoc.Suite != newDoc.Suite {
		return nil, fmt.Errorf("suite mismatch: %q vs %q", oldDoc.Suite, newDoc.Suite)
	}
	if opts.ThresholdPct <= 0 {
		opts.ThresholdPct = 20
	}
	type key struct{ c, m string }
	cur := make(map[key]experiments.BenchRow, len(newDoc.Rows))
	for _, r := range newDoc.Rows {
		cur[key{r.Case, r.Metric}] = r
	}
	rep := &Report{Suite: oldDoc.Suite}
	skip := func(r experiments.BenchRow, format string, args ...interface{}) {
		rep.Skipped = append(rep.Skipped, r.Case+"/"+r.Metric+": "+fmt.Sprintf(format, args...))
	}
	baseline := make(map[key]bool, len(oldDoc.Rows))
	for _, o := range oldDoc.Rows {
		baseline[key{o.Case, o.Metric}] = true
		if !metricSelected(o.Metric, opts.MetricFilter) {
			continue
		}
		n, ok := cur[key{o.Case, o.Metric}]
		switch {
		case !ok:
			skip(o, "absent from new run")
		case !sameParams(o.Params, n.Params):
			skip(o, "params differ (%s vs %s) — not comparable", renderParams(o.Params), renderParams(n.Params))
		case o.Better != n.Better:
			skip(o, "direction differs (%s vs %s) — not comparable", o.Better, n.Better)
		case o.Value <= 0:
			skip(o, "old value %g not comparable", o.Value)
		default:
			d := Delta{Case: o.Case, Metric: o.Metric, Old: o.Value, New: n.Value,
				ThresholdPct: opts.ThresholdPct, Better: o.Better}
			if o.Better == experiments.Higher {
				d.WorsePct = (o.Value - n.Value) / o.Value * 100
			} else {
				d.WorsePct = (n.Value - o.Value) / o.Value * 100
			}
			d.Regression = d.WorsePct > opts.ThresholdPct
			rep.Deltas = append(rep.Deltas, d)
		}
	}
	for _, n := range newDoc.Rows {
		if !baseline[key{n.Case, n.Metric}] && metricSelected(n.Metric, opts.MetricFilter) {
			skip(n, "new row, no baseline")
		}
	}
	return rep, nil
}

func metricSelected(name string, filters []string) bool {
	if len(filters) == 0 {
		return true
	}
	for _, f := range filters {
		if strings.Contains(name, f) {
			return true
		}
	}
	return false
}

func sameParams(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func renderParams(p map[string]int64) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, p[k])
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Render writes the report as an aligned table: every compared row
// with its worsening percentage, regressions flagged, skips listed.
func Render(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "benchdiff: suite %s, %d comparisons, %d regressions\n",
		rep.Suite, len(rep.Deltas), len(rep.Regressions()))
	if len(rep.Deltas) > 0 {
		fmt.Fprintf(w, "%-32s %-28s %12s %12s %9s %s\n",
			"case", "metric", "old", "new", "worse%", "")
		for _, d := range rep.Deltas {
			flag := ""
			if d.Regression {
				flag = fmt.Sprintf("REGRESSION (>%g%%)", d.ThresholdPct)
			}
			fmt.Fprintf(w, "%-32s %-28s %12.4g %12.4g %+8.1f%% %s\n",
				d.Case, d.Metric, d.Old, d.New, d.WorsePct, flag)
		}
	}
	for _, s := range rep.Skipped {
		fmt.Fprintf(w, "skipped: %s\n", s)
	}
}
