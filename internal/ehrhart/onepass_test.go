package ehrhart_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cparse"
	"repro/internal/ehrhart"
	"repro/internal/kernels"
	"repro/internal/nest"
	"repro/internal/telemetry"
)

// TestRankingInstrumentedMatchesRankingAndCount checks that the one-pass
// ranking and count (one trip-count summation) equal the stand-alone
// Ranking and Count on every Fig. 5 kernel nest and every shipped
// testdata input, with and without telemetry.
func TestRankingInstrumentedMatchesRankingAndCount(t *testing.T) {
	nests := map[string]*nest.Nest{}
	for _, k := range kernels.All() {
		nests[k.Name] = k.Nest
	}
	files, err := filepath.Glob("../../testdata/*.c")
	if err != nil || len(files) < 4 {
		t.Fatalf("testdata inputs: %v (err %v)", files, err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := cparse.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		nests[filepath.Base(f)] = prog.Nest
	}
	for name, n := range nests {
		wantR, wantC := ehrhart.Ranking(n), ehrhart.Count(n)
		for _, tel := range []*telemetry.Registry{nil, telemetry.New()} {
			r, c := ehrhart.RankingInstrumented(n, tel)
			if !r.Equal(wantR) {
				t.Errorf("%s: one-pass ranking %v, Ranking %v", name, r, wantR)
			}
			if !c.Equal(wantC) {
				t.Errorf("%s: one-pass count %v, Count %v", name, c, wantC)
			}
		}
	}
}
