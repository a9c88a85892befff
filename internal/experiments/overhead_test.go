package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/kernels"
)

// TestOverheadQuick runs the suite at test sizes with a single fast rep
// and checks the report is complete and internally consistent, and that
// its BenchDoc round-trips through JSON.
func TestOverheadQuick(t *testing.T) {
	rep, err := Overhead(OverheadOptions{
		Quick:   true,
		Reps:    1,
		MinTime: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatalf("Overhead: %v", err)
	}
	if len(rep.Kernels) != len(kernels.All()) {
		t.Fatalf("report has %d kernels, want %d", len(rep.Kernels), len(kernels.All()))
	}
	for _, row := range rep.Kernels {
		if row.Iterations < 1 {
			t.Errorf("%s: empty collapsed space in report", row.Kernel)
		}
		if row.OriginalNsPerIter <= 0 || row.RecoverEveryNsPerIter <= 0 {
			t.Errorf("%s: non-positive baseline timings: %+v", row.Kernel, row)
		}
		if row.TotalBounds == 0 || row.SpecializedBounds > row.TotalBounds {
			t.Errorf("%s: bad specializer coverage %d/%d",
				row.Kernel, row.SpecializedBounds, row.TotalBounds)
		}
		if len(row.Schedules) != 3 {
			t.Errorf("%s: %d schedules, want 3", row.Kernel, len(row.Schedules))
		}
		for _, s := range row.Schedules {
			if s.PerIterNs <= 0 || s.RangesNs <= 0 {
				t.Errorf("%s/%s: non-positive engine timings: %+v", row.Kernel, s.Schedule, s)
			}
			if s.Batches < 1 || s.MeanRunLen < 1 {
				t.Errorf("%s/%s: engine delivered no runs: %+v", row.Kernel, s.Schedule, s)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "overhead.json")
	if err := WriteDoc(path, rep.Doc()); err != nil {
		t.Fatalf("WriteDoc: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back BenchDoc
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("document does not round-trip: %v", err)
	}
	if want := len(rep.Rows()); len(back.Rows) != want || back.Suite != "overhead" ||
		back.Meta.SchemaVersion != BenchSchemaVersion {
		t.Fatalf("round-tripped document: suite %q, schema %d, %d rows (want %d)",
			back.Suite, back.Meta.SchemaVersion, len(back.Rows), want)
	}
	if RenderOverhead(rep) == "" {
		t.Error("RenderOverhead returned empty output")
	}
}
