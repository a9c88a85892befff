package obs

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// scrapeNsLine normalises the one nondeterministic exposition line (the
// monotonic scrape clock) so the golden comparison stays exact.
var scrapeNsLine = regexp.MustCompile(`(?m)^telemetry_scrape_monotonic_ns .*$`)

// TestOpenMetricsGolden pins the exact exposition for a known registry:
// counter/gauge/histogram encoding, label grouping, cumulative buckets,
// quantile gauges, family ordering, and the # EOF terminator.
func TestOpenMetricsGolden(t *testing.T) {
	r := telemetry.New()
	r.Counter("demo.requests").Add(3)
	r.Counter(`omp.worker_chunks{tid="1"}`).Add(5)
	r.Counter(`omp.worker_chunks{tid="0"}`).Add(2)
	r.Gauge("demo.temp").Set(-7)
	r.Counter("unrank.table_lookups").Add(17)
	r.Counter("unrank.table_corrections").Add(4)
	r.Counter("unrank.searches").Add(6)
	h := r.Histogram("demo.lat", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 9} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := WriteOpenMetrics(&b, r); err != nil {
		t.Fatal(err)
	}
	got := scrapeNsLine.ReplaceAllString(b.String(), "telemetry_scrape_monotonic_ns X")

	want := `# TYPE demo_lat histogram
demo_lat_bucket{le="1"} 1
demo_lat_bucket{le="2"} 2
demo_lat_bucket{le="4"} 3
demo_lat_bucket{le="+Inf"} 4
demo_lat_sum 14
demo_lat_count 4
# TYPE demo_lat_quantile gauge
demo_lat_quantile{quantile="0.5"} 2
demo_lat_quantile{quantile="0.95"} 4
demo_lat_quantile{quantile="0.99"} 4
# TYPE demo_requests counter
demo_requests_total 3
# TYPE demo_temp gauge
demo_temp -7
# TYPE omp_worker_chunks counter
omp_worker_chunks_total{tid="0"} 2
omp_worker_chunks_total{tid="1"} 5
# TYPE telemetry_scrape_monotonic_ns gauge
telemetry_scrape_monotonic_ns X
# TYPE unrank_searches counter
unrank_searches_total 6
# TYPE unrank_table_corrections counter
unrank_table_corrections_total 4
# TYPE unrank_table_lookups counter
unrank_table_lookups_total 17
# EOF
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestParserRoundTrip writes a richer registry (labels, histogram,
// spans, flight recorder) through the exporter, parses it back with the
// package's own strict parser, and checks every registered metric
// appears with the right type, labels and value.
func TestParserRoundTrip(t *testing.T) {
	r := telemetry.New()
	f := r.EnableFlight(16, true)
	r.Counter("cache.hits").Add(11)
	r.Counter("cache.misses").Add(4)
	r.Counter(`unrank.root_evals`).Add(123)
	r.Counter(`unrank.table_lookups`).Add(9)
	r.Counter(`unrank.searches`).Add(2)
	r.Gauge("omp.team_size").Set(8)
	r.Gauge(`omp.worker_inflight_since_ns{tid="2"}`).Set(42)
	h := r.Histogram("omp.chunk_seconds", []float64{0.001, 0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	sp := r.StartSpan("compile", "core.Collapse", 0)
	sp.End()

	var b strings.Builder
	if err := WriteOpenMetrics(&b, r); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exporter output does not parse: %v\n%s", err, b.String())
	}

	wantType := map[string]string{
		"cache_hits":                    "counter",
		"cache_misses":                  "counter",
		"unrank_root_evals":             "counter",
		"unrank_table_lookups":          "counter",
		"unrank_searches":               "counter",
		"omp_team_size":                 "gauge",
		"omp_worker_inflight_since_ns":  "gauge",
		"omp_chunk_seconds":             "histogram",
		"omp_chunk_seconds_quantile":    "gauge",
		"trace_spans":                   "gauge",
		"trace_span_seconds":            "gauge",
		"telemetry_scrape_monotonic_ns": "gauge",
		"flight_recorded_events":        "counter",
	}
	for name, typ := range wantType {
		fam, ok := fams[name]
		if !ok {
			t.Errorf("family %s missing from exposition", name)
			continue
		}
		if fam.Type != typ {
			t.Errorf("family %s has type %s, want %s", name, fam.Type, typ)
		}
		if len(fam.Samples) == 0 {
			t.Errorf("family %s has no samples", name)
		}
	}

	// Counter values survive the round trip.
	if v := findSample(t, fams, "cache_hits", "cache_hits_total", nil); v != 11 {
		t.Errorf("cache_hits_total = %v, want 11", v)
	}
	// Embedded labels split into real label sets.
	if v := findSample(t, fams, "omp_worker_inflight_since_ns",
		"omp_worker_inflight_since_ns", map[string]string{"tid": "2"}); v != 42 {
		t.Errorf("inflight{tid=2} = %v, want 42", v)
	}
	// Histogram invariant: _count equals the +Inf bucket.
	cnt := findSample(t, fams, "omp_chunk_seconds", "omp_chunk_seconds_count", nil)
	inf := findSample(t, fams, "omp_chunk_seconds", "omp_chunk_seconds_bucket",
		map[string]string{"le": "+Inf"})
	if cnt != 2 || inf != cnt {
		t.Errorf("histogram count=%v infBucket=%v, want both 2", cnt, inf)
	}
	// Quantile family carries the three default quantiles.
	if got := len(fams["omp_chunk_seconds_quantile"].Samples); got != len(DefQuantiles) {
		t.Errorf("quantile samples = %d, want %d", got, len(DefQuantiles))
	}
	// The span aggregate is labelled with the recorded (cat, name).
	if v := findSample(t, fams, "trace_spans", "trace_spans",
		map[string]string{"cat": "compile", "name": "core.Collapse"}); v != 1 {
		t.Errorf("trace_spans{compile,core.Collapse} = %v, want 1", v)
	}
	if v := findSample(t, fams, "flight_recorded_events", "flight_recorded_events_total", nil); v != float64(f.Total()) {
		t.Errorf("flight_recorded_events_total = %v, want %d", v, f.Total())
	}
}

// findSample locates a sample by name and exact label subset match.
func findSample(t *testing.T, fams map[string]*Family, famName, sampleName string, labels map[string]string) float64 {
	t.Helper()
	fam, ok := fams[famName]
	if !ok {
		t.Fatalf("family %s missing", famName)
	}
	for _, s := range fam.Samples {
		if s.Name != sampleName {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value
		}
	}
	t.Fatalf("sample %s%v not found in family %s", sampleName, labels, famName)
	return 0
}

// TestParserRejectsMalformed exercises the strict-mode failure paths.
func TestParserRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"missing EOF":        "# TYPE a counter\na_total 1\n",
		"bad value":          "# TYPE a counter\na_total nope\n# EOF\n",
		"unterminated label": "a{x=\"1 2\n# EOF\n",
		"content after EOF":  "# EOF\na 1\n",
		"interleaved":        "# TYPE a counter\na_total 1\n# TYPE b counter\nb_total 1\na_total 2\n# EOF\n",
		"duplicate TYPE":     "# TYPE a counter\n# TYPE a gauge\n# EOF\n",
	}
	for name, in := range cases {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parser accepted malformed input:\n%s", name, in)
		}
	}
}

// TestParserLabelEscapes checks escaped quotes and backslashes in label
// values survive parsing.
func TestParserLabelEscapes(t *testing.T) {
	in := "# TYPE a gauge\na{k=\"v\\\"q\\\\w\"} 5\n# EOF\n"
	fams, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	s := fams["a"].Samples[0]
	if s.Labels["k"] != `v"q\w` {
		t.Errorf("escaped label = %q, want %q", s.Labels["k"], `v"q\w`)
	}
}

// TestSanitizeFamily pins the name-mangling rules.
func TestSanitizeFamily(t *testing.T) {
	cases := map[string]string{
		"omp.chunk_seconds": "omp_chunk_seconds",
		"a-b c":             "a_b_c",
		"9lives":            "_9lives",
		"ok:name_2":         "ok:name_2",
	}
	for in, want := range cases {
		if got := sanitizeFamily(in); got != want {
			t.Errorf("sanitizeFamily(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestNilRegistryExposition: a nil registry still yields a valid,
// parseable exposition.
func TestNilRegistryExposition(t *testing.T) {
	var b strings.Builder
	if err := WriteOpenMetrics(&b, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseExposition(strings.NewReader(b.String())); err != nil {
		t.Fatalf("nil-registry exposition does not parse: %v\n%s", err, b.String())
	}
}
