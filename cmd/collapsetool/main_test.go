package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
)

const correlationC = `
#pragma omp parallel for private(j, k) collapse(2) schedule(static)
for (i = 0; i < N - 1; i++)
  for (j = i + 1; j < N; j++) {
    for (k = 0; k < N; k++)
      a[i][j] += b[k][i] * c[k][j];
    a[j][i] = a[i][j];
  }
`

func writeInput(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "in.c")
	if err := os.WriteFile(path, []byte(correlationC), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// base returns the default options for one input file.
func base(path string) options {
	return options{
		scheme:  "first-iteration",
		chunk:   64,
		vlength: 8,
		warp:    32,
		statsN:  40,
		threads: 4,
		args:    []string{path},
	}
}

// capture redirects stdout around f.
func capture(t *testing.T, f func() error) (string, error) {
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
	ferr := f()
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

func TestRunFirstIteration(t *testing.T) {
	o := base(writeInput(t))
	o.report = true
	o.check = 10
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"ranking polynomial",
		"r(i, j) = ",
		"total iterations:",
		"convenient root #1:",
		"i = floor(Re( ",
		"sqrt(",
		"first_iteration = 1;",
		"csqrt(",
		"a[j][i] = a[i][j];",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestRunAllSchemes(t *testing.T) {
	path := writeInput(t)
	// simd/warp require full collapse; the correlation input collapses
	// 2 of 2 parsed loops (the k loop is body text), so they work too.
	for _, scheme := range []string{"per-iteration", "first-iteration", "chunked", "simd", "warp"} {
		o := base(path)
		o.scheme = scheme
		o.chunk = 32
		o.vlength = 4
		o.warp = 16
		if _, err := capture(t, func() error { return run(o) }); err != nil {
			t.Errorf("scheme %s: %v", scheme, err)
		}
	}
}

func TestRunGoEmission(t *testing.T) {
	o := base(writeInput(t))
	o.emitGo = true
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "package collapsed") || !strings.Contains(out, "cmplx.Sqrt(") {
		t.Errorf("Go emission missing:\n%s", out)
	}
}

func TestRunStats(t *testing.T) {
	o := base(writeInput(t))
	o.stats = true
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"=== telemetry",
		"load imbalance:",
		"thread", "iterations", "recovery",
		"recovery stats (all threads): root evals",
		"chunk starts: ",
		"compile/ehrhart.Ranking",
		"compile/unrank.selectRoots",
		"unrank.root_evals",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("stats output missing %q:\n%s", frag, out)
		}
	}
}

func TestRunTraceOut(t *testing.T) {
	o := base(writeInput(t))
	o.stats = true
	o.traceOut = filepath.Join(t.TempDir(), "trace.json")
	if _, err := capture(t, func() error { return run(o) }); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	var haveCompile, haveChunk bool
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		switch ev.Name {
		case "core.Collapse":
			haveCompile = true
		case "static":
			haveChunk = true
		}
	}
	if !haveCompile || !haveChunk {
		t.Errorf("trace missing compile (%v) or chunk (%v) events", haveCompile, haveChunk)
	}
}

// TestParseSchedule checks the -stats run's schedule: the pragma's
// clause unless -sched overrides it, and a clause outside the grammar
// (omp.ParseSchedule) is an error instead of a silent static run.
// Emission without -stats passes the pragma's clause through untouched.
func TestParseSchedule(t *testing.T) {
	withClause := func(clause string) string {
		path := filepath.Join(t.TempDir(), "in.c")
		src := strings.Replace(correlationC, "schedule(static)", "schedule("+clause+")", 1)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, c := range []struct{ pragma, flag, want string }{
		{"static", "", "schedule static,"},
		{"static, 8", "", "schedule static,chunk,"},
		{"guided", "", "schedule guided,"},
		{"static", "dynamic, 4", "schedule dynamic,"},
	} {
		o := base(withClause(c.pragma))
		o.stats, o.sched = true, c.flag
		out, err := capture(t, func() error { return run(o) })
		if err != nil || !strings.Contains(out, c.want) {
			t.Errorf("pragma %q -sched %q: err %v, output lacks %q", c.pragma, c.flag, err, c.want)
		}
	}
	for _, c := range []struct{ pragma, flag string }{
		{"static", "bogus"},
		{"static", "static,x"},
		{"dynamic, 0", ""},
		{"static, CHUNK", ""},
	} {
		o := base(withClause(c.pragma))
		o.stats, o.sched = true, c.flag
		if _, err := capture(t, func() error { return run(o) }); err == nil {
			t.Errorf("pragma %q -sched %q: bad schedule accepted", c.pragma, c.flag)
		}
	}
	out, err := capture(t, func() error { return run(base(withClause("static, CHUNK"))) })
	if err != nil || !strings.Contains(out, "schedule(static, CHUNK)") {
		t.Errorf("emission did not pass the pragma clause through: err %v\n%s", err, out)
	}
}

func TestRunErrors(t *testing.T) {
	path := writeInput(t)
	o := base(path)
	o.scheme = "bogus"
	if err := run(o); err == nil {
		t.Error("bogus scheme accepted")
	}
	o = base(path)
	o.args = []string{"a", "b"}
	if err := run(o); err == nil {
		t.Error("two files accepted")
	}
	o = base(path)
	o.args = []string{"/does/not/exist.c"}
	if err := run(o); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.c")
	os.WriteFile(bad, []byte("int main() {}"), 0o644)
	o = base(path)
	o.args = []string{bad}
	if err := run(o); err == nil {
		t.Error("non-annotated input accepted")
	}
}

// TestRunMalformedDiagnostics checks that parse failures come back as
// located, compiler-style diagnostics (file:line:col) rather than byte
// offsets or panics.
func TestRunMalformedDiagnostics(t *testing.T) {
	o := base("../../testdata/malformed/stride.c")
	err := run(o)
	if err == nil {
		t.Fatal("malformed input accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "stride.c:5:") || !strings.Contains(msg, "unit stride") {
		t.Errorf("diagnostic not located (want file:5:col + cause): %v", err)
	}

	o = base("../../testdata/malformed/nonaffine.c")
	if err := run(o); err == nil || !strings.Contains(err.Error(), "not affine") {
		t.Errorf("non-affine diagnostic: %v", err)
	}
}

const quinticC = `
#pragma omp parallel for collapse(5) schedule(static)
for (a = 0; a < N; a++)
  for (b = 0; b <= a; b++)
    for (c = 0; c <= b; c++)
      for (d = 0; d <= c; d++)
        for (e = 0; e <= d; e++)
          x += 1;
`

// TestRunStatsDowngrade checks the graceful-degradation path of -stats:
// a collapse(5) simplex nest has a degree-5 ranking polynomial (beyond
// radical solvability), so the tool downgrades to uncollapsed outer-loop
// worksharing and reports the downgrade in the telemetry.
func TestRunStatsDowngrade(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "quintic.c")
	if err := os.WriteFile(path, []byte(quinticC), 0o644); err != nil {
		t.Fatal(err)
	}
	o := base(path)
	o.stats = true
	o.statsN = 8
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"uncollapsed fallback",
		"per-thread iterations (outer-loop worksharing)",
		"omp.downgrades",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("downgrade output missing %q:\n%s", frag, out)
		}
	}
	// Without -stats the inapplicability is a hard, classified error.
	o.stats = false
	if _, err := capture(t, func() error { return run(o) }); err == nil ||
		!strings.Contains(err.Error(), "degree") {
		t.Errorf("codegen of degree-5 nest not rejected: %v", err)
	}
}

// TestRunCheckIrregular self-checks a nest that is irregular at N=2
// (j's range 1:N-i+2 is negative from i=4 on): -check reports the loop
// and prefix that break regularity instead of a tuple mismatch.
func TestRunCheckIrregular(t *testing.T) {
	path := filepath.Join(t.TempDir(), "irregular.c")
	src := `#pragma omp parallel for collapse(3)
for (i = 0; i < 3 * N; i++)
  for (j = 1; j < N - i + 2; j++)
    for (k = -2 * N + i - j + 1; k < N + j; k++)
      S(i, j, k);
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	o := base(path)
	o.check = 2
	_, err := capture(t, func() error { return run(o) })
	if err == nil {
		t.Fatal("-check accepted an irregular binding")
	}
	for _, frag := range []string{"not regular", `loop "j" has negative trip count`, "prefix [4]"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("-check error missing %q: %v", frag, err)
		}
	}
}

// TestRunRepositoryTestdata self-checks the transformation on every
// sample input shipped in testdata/, including the quartic §IV.B limit
// case.
func TestRunRepositoryTestdata(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.c")
	if err != nil || len(files) < 4 {
		t.Fatalf("testdata inputs: %v (err %v)", files, err)
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			o := base(f)
			o.check = 6
			if _, err := capture(t, func() error { return run(o) }); err != nil {
				t.Errorf("%s: %v", f, err)
			}
		})
	}
}

func TestRunStatsSchedAuto(t *testing.T) {
	o := base(writeInput(t))
	o.stats = true
	o.sched = "auto"
	out, err := capture(t, func() error { return run(o) })
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"schedule auto ->",
		"autotune decision: schedule",
		"predicted makespan",
		"actual",
		"calibration: dequeue",
		"unit cost",
		"load imbalance:",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("auto stats output missing %q:\n%s", frag, out)
		}
	}
	if !strings.Contains(out, "(sampled)") && !strings.Contains(out, "(live p50)") {
		t.Errorf("auto stats output does not say where the recovery cost came from:\n%s", out)
	}
}

// TestRunStatsDeadline checks that an expired -deadline stops the
// -stats run at a chunk boundary and is reported as the typed
// faults.ErrCanceled class, not as a wrong answer or a hang.
func TestRunStatsDeadline(t *testing.T) {
	o := base(writeInput(t))
	o.stats = true
	o.statsN = 2000
	o.sched = "dynamic,64"
	o.deadline = time.Nanosecond
	_, err := capture(t, func() error { return run(o) })
	if !errors.Is(err, faults.ErrCanceled) {
		t.Fatalf("1ns deadline: err = %v, want faults.ErrCanceled", err)
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Errorf("deadline error does not name the deadline: %v", err)
	}
}
