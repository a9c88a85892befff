package autotune

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/nest"
	"repro/internal/omp"
	"repro/internal/unrank"
)

// goldenCal is the fixed calibration the golden decisions were
// recorded under.
var goldenCal = Calibration{Dequeue: 70e-9, Recovery: 70e-9}

// goldenDecisions pins the planner's choice, exactly, on the triangle
// i=0:N, j=i:N collapsed fully (c=2: uniform work) and partially (c=1:
// the inner trip count falls linearly), per unit cost, N and
// MaxWorkers, under goldenCal. The table was recorded from the planner
// as it was before arrival-trace scoring and the per-tuner options were
// removed; any change to the work model, the candidate set, the
// simulator or the score shows up here.
var goldenDecisions = []struct {
	c          int
	unitSec    float64
	n          int64
	maxWorkers int
	want       Decision
}{
	{2, 5e-08, 16, 1, Decision{omp.Schedule{Kind: omp.Static}, 1, 6.870000000000019e-06}},
	{2, 5e-08, 16, 2, Decision{omp.Schedule{Kind: omp.Static}, 2, 3.469999999999997e-06}},
	{2, 5e-08, 16, 4, Decision{omp.Schedule{Kind: omp.Static}, 4, 1.7699999999999987e-06}},
	{2, 5e-08, 16, 8, Decision{omp.Schedule{Kind: omp.Static}, 8, 9.199999999999997e-07}},
	{2, 5e-08, 100, 1, Decision{omp.Schedule{Kind: omp.Static}, 1, 0.0002525700000000053}},
	{2, 5e-08, 100, 2, Decision{omp.Schedule{Kind: omp.Static}, 2, 0.00012637000000000222}},
	{2, 5e-08, 100, 4, Decision{omp.Schedule{Kind: omp.Static}, 4, 6.32700000000007e-05}},
	{2, 5e-08, 100, 8, Decision{omp.Schedule{Kind: omp.Static}, 8, 3.166999999999993e-05}},
	{2, 5e-08, 1000, 1, Decision{omp.Schedule{Kind: omp.Static}, 1, 0.025025069999999636}},
	{2, 5e-08, 1000, 2, Decision{omp.Schedule{Kind: omp.Static}, 2, 0.012515319999999825}},
	{2, 5e-08, 1000, 4, Decision{omp.Schedule{Kind: omp.Static}, 4, 0.006260769999999921}},
	{2, 5e-08, 1000, 8, Decision{omp.Schedule{Kind: omp.Static}, 8, 0.0031304199999999684}},
	{2, 5e-08, 5000, 1, Decision{omp.Schedule{Kind: omp.Static}, 1, 0.6251250699999468}},
	{2, 5e-08, 5000, 2, Decision{omp.Schedule{Kind: omp.Static}, 2, 0.31262726999999496}},
	{2, 5e-08, 5000, 4, Decision{omp.Schedule{Kind: omp.Static}, 4, 0.1563136700000021}},
	{2, 5e-08, 5000, 8, Decision{omp.Schedule{Kind: omp.Static}, 8, 0.07815686999999996}},
	{2, 1e-06, 16, 1, Decision{omp.Schedule{Kind: omp.Static}, 1, 0.00013606999999999972}},
	{2, 1e-06, 16, 2, Decision{omp.Schedule{Kind: omp.Static}, 2, 6.806999999999991e-05}},
	{2, 1e-06, 16, 4, Decision{omp.Schedule{Kind: omp.Static}, 4, 3.4070000000000004e-05}},
	{2, 1e-06, 16, 8, Decision{omp.Schedule{Kind: omp.Static}, 8, 1.7070000000000004e-05}},
	{2, 1e-06, 100, 1, Decision{omp.Schedule{Kind: omp.Static}, 1, 0.005050070000000022}},
	{2, 1e-06, 100, 2, Decision{omp.Schedule{Kind: omp.Static}, 2, 0.002526069999999986}},
	{2, 1e-06, 100, 4, Decision{omp.Schedule{Kind: omp.Static}, 4, 0.0012640700000000177}},
	{2, 1e-06, 100, 8, Decision{omp.Schedule{Kind: omp.Static}, 8, 0.0006320700000000024}},
	{2, 1e-06, 1000, 1, Decision{omp.Schedule{Kind: omp.Static}, 1, 0.5005000699999789}},
	{2, 1e-06, 1000, 2, Decision{omp.Schedule{Kind: omp.Static}, 2, 0.2503050700000109}},
	{2, 1e-06, 1000, 4, Decision{omp.Schedule{Kind: omp.Static}, 4, 0.12521406999999876}},
	{2, 1e-06, 1000, 8, Decision{omp.Schedule{Kind: omp.Static}, 8, 0.06260706999999971}},
	{2, 1e-06, 5000, 1, Decision{omp.Schedule{Kind: omp.Static}, 1, 12.502500069999817}},
	{2, 1e-06, 5000, 2, Decision{omp.Schedule{Kind: omp.Static}, 2, 6.2525440700002735}},
	{2, 1e-06, 5000, 4, Decision{omp.Schedule{Kind: omp.Static}, 4, 3.126272069999974}},
	{2, 1e-06, 5000, 8, Decision{omp.Schedule{Kind: omp.Static}, 8, 1.563136069999988}},
	{1, 5e-08, 16, 1, Decision{omp.Schedule{Kind: omp.Static}, 1, 6.87e-06}},
	{1, 5e-08, 16, 2, Decision{omp.Schedule{Kind: omp.StaticChunk, Chunk: 1}, 2, 4.160000000000001e-06}},
	{1, 5e-08, 16, 4, Decision{omp.Schedule{Kind: omp.Dynamic, Chunk: 1}, 4, 2.2600000000000004e-06}},
	{1, 5e-08, 16, 8, Decision{omp.Schedule{Kind: omp.Dynamic, Chunk: 1}, 8, 1.1300000000000002e-06}},
	{1, 5e-08, 100, 1, Decision{omp.Schedule{Kind: omp.Static}, 1, 0.0002525699999999999}},
	{1, 5e-08, 100, 2, Decision{omp.Schedule{Kind: omp.StaticChunk, Chunk: 1}, 2, 0.00013099999999999999}},
	{1, 5e-08, 100, 4, Decision{omp.Schedule{Kind: omp.Dynamic, Chunk: 1}, 4, 6.669999999999998e-05}},
	{1, 5e-08, 100, 8, Decision{omp.Schedule{Kind: omp.Dynamic, Chunk: 1}, 8, 3.351999999999999e-05}},
	{1, 5e-08, 1000, 1, Decision{omp.Schedule{Kind: omp.Static}, 1, 0.02502507}},
	{1, 5e-08, 1000, 2, Decision{omp.Schedule{Kind: omp.Dynamic, Chunk: 256}, 2, 0.012519680000000002}},
	{1, 5e-08, 1000, 4, Decision{omp.Schedule{Kind: omp.Dynamic, Chunk: 64}, 4, 0.00626716}},
	{1, 5e-08, 1000, 8, Decision{omp.Schedule{Kind: omp.Dynamic, Chunk: 16}, 8, 0.0031397799999999996}},
	{1, 5e-08, 5000, 1, Decision{omp.Schedule{Kind: omp.Static}, 1, 0.6252500700000001}},
	{1, 5e-08, 5000, 2, Decision{omp.Schedule{Kind: omp.Dynamic, Chunk: 16}, 2, 0.31264797999999994}},
	{1, 5e-08, 5000, 4, Decision{omp.Schedule{Kind: omp.Dynamic, Chunk: 16}, 4, 0.15632505999999993}},
	{1, 5e-08, 5000, 8, Decision{omp.Schedule{Kind: omp.Dynamic, Chunk: 16}, 8, 0.07820625999999997}},
	{1, 1e-06, 16, 1, Decision{omp.Schedule{Kind: omp.Static}, 1, 0.00013606999999999996}},
	{1, 1e-06, 16, 2, Decision{omp.Schedule{Kind: omp.Dynamic, Chunk: 1}, 2, 6.912000000000002e-05}},
	{1, 1e-06, 16, 4, Decision{omp.Schedule{Kind: omp.Dynamic, Chunk: 1}, 4, 3.456e-05}},
	{1, 1e-06, 16, 8, Decision{omp.Schedule{Kind: omp.Dynamic, Chunk: 1}, 8, 1.728e-05}},
	{1, 1e-06, 100, 1, Decision{omp.Schedule{Kind: omp.Static}, 1, 0.005050069999999999}},
	{1, 1e-06, 100, 2, Decision{omp.Schedule{Kind: omp.Dynamic, Chunk: 1}, 2, 0.002532}},
	{1, 1e-06, 100, 4, Decision{omp.Schedule{Kind: omp.Dynamic, Chunk: 1}, 4, 0.0012674999999999997}},
	{1, 1e-06, 100, 8, Decision{omp.Schedule{Kind: omp.Dynamic, Chunk: 1}, 8, 0.0006358199999999998}},
	{1, 1e-06, 1000, 1, Decision{omp.Schedule{Kind: omp.Static}, 1, 0.5005000699999999}},
	{1, 1e-06, 1000, 2, Decision{omp.Schedule{Kind: omp.Dynamic, Chunk: 1}, 2, 0.25032000000000004}},
	{1, 1e-06, 1000, 4, Decision{omp.Schedule{Kind: omp.Dynamic, Chunk: 1}, 4, 0.12516000000000002}},
	{1, 1e-06, 1000, 8, Decision{omp.Schedule{Kind: omp.Dynamic, Chunk: 1}, 8, 0.06258349999999999}},
	{1, 1e-06, 5000, 1, Decision{omp.Schedule{Kind: omp.Static}, 1, 12.50500007}},
	{1, 1e-06, 5000, 2, Decision{omp.Schedule{Kind: omp.Dynamic, Chunk: 16}, 2, 6.252541979999999}},
	{1, 1e-06, 5000, 4, Decision{omp.Schedule{Kind: omp.Dynamic, Chunk: 16}, 4, 3.126291059999999}},
	{1, 1e-06, 5000, 8, Decision{omp.Schedule{Kind: omp.Dynamic, Chunk: 1}, 8, 1.563223639999999}},
}

func TestGoldenDecisions(t *testing.T) {
	results := map[int]*core.Result{}
	for _, c := range []int{1, 2} {
		n := nest.MustNew([]string{"N"}, nest.L("i", "0", "N"), nest.L("j", "i", "N"))
		res, err := core.Collapse(n, c, unrank.Options{})
		if err != nil {
			t.Fatal(err)
		}
		results[c] = res
	}
	for _, g := range goldenDecisions {
		name := fmt.Sprintf("c%d/unit%g/N%d/w%d", g.c, g.unitSec, g.n, g.maxWorkers)
		res := results[g.c]
		params := map[string]int64{"N": g.n}
		b, err := res.Unranker.Bind(params)
		if err != nil {
			t.Fatal(err)
		}
		tuner := New(Options{MaxWorkers: g.maxWorkers})
		got := tuner.plan("", buildWorkModel(res, b, params, maxUnits), goldenCal, g.unitSec, 0).Decision
		if got != g.want {
			t.Errorf("%s: decision %v predicted %v, want %v predicted %v",
				name, got, got.PredictedSec, g.want, g.want.PredictedSec)
		}
	}
}
