package schedsim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// triangularWork models the correlation outer loop: iteration i has
// N-1-i units of inner work.
func triangularWork(N int) []float64 {
	w := make([]float64, N-1)
	for i := range w {
		w[i] = float64(N - 1 - i)
	}
	return w
}

func TestStaticLoadsConservation(t *testing.T) {
	f := func(seed int64, p8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		P := int(p8%12) + 1
		n := r.Intn(200)
		work := make([]float64, n)
		var total float64
		for i := range work {
			work[i] = float64(r.Intn(100))
			total += work[i]
		}
		loads := StaticLoads(work, P)
		var sum float64
		for _, l := range loads {
			sum += l
		}
		return math.Abs(sum-total) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMakespansAtLeastLowerBound(t *testing.T) {
	f := func(seed int64, p8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		P := int(p8%12) + 1
		n := r.Intn(150) + 1
		work := make([]float64, n)
		for i := range work {
			work[i] = float64(r.Intn(50) + 1)
		}
		lb := LowerBound(work, P)
		eps := 1e-9
		return Static(work, P, 0) >= lb-eps &&
			StaticChunk(work, P, 4, 0) >= lb-eps &&
			Dynamic(work, P, 1, 0) >= lb-eps &&
			Guided(work, P, 1, 0) >= lb-eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniformWorkPerfectBalance(t *testing.T) {
	work := make([]float64, 120)
	for i := range work {
		work[i] = 2
	}
	for _, P := range []int{1, 2, 3, 4, 6, 12} {
		want := 2.0 * 120 / float64(P)
		if got := Static(work, P, 0); math.Abs(got-want) > 1e-9 {
			t.Errorf("Static P=%d: %g, want %g", P, got, want)
		}
		if got := Dynamic(work, P, 1, 0); math.Abs(got-want) > 1e-9 {
			t.Errorf("Dynamic P=%d: %g, want %g", P, got, want)
		}
	}
}

// The paper's Fig. 2 phenomenon: static scheduling of a triangular space
// loads thread 0 with nearly 2x the average.
func TestTriangularStaticImbalance(t *testing.T) {
	work := triangularWork(1000)
	P := 5
	loads := StaticLoads(work, P)
	avg := Total(work) / float64(P)
	if loads[0] < 1.7*avg {
		t.Errorf("thread 0 load %g not ~1.8x the average %g", loads[0], avg)
	}
	if loads[P-1] > 0.5*avg {
		t.Errorf("last thread load %g not small vs average %g", loads[P-1], avg)
	}
	// Dynamic with chunk 1 and no overhead is near-optimal here.
	d := Dynamic(work, P, 1, 0)
	if d > 1.05*LowerBound(work, P) {
		t.Errorf("dynamic makespan %g far from lower bound %g", d, LowerBound(work, P))
	}
	// Static must be far worse than dynamic on the triangle.
	s := Static(work, P, 0)
	if s < 1.5*d {
		t.Errorf("static %g not >> dynamic %g on triangular work", s, d)
	}
}

func TestDynamicOverheadHurts(t *testing.T) {
	work := make([]float64, 10000)
	for i := range work {
		work[i] = 1
	}
	base := Dynamic(work, 12, 1, 0)
	withOv := Dynamic(work, 12, 1, 0.5)
	if withOv <= base {
		t.Error("per-dequeue overhead did not increase makespan")
	}
	// Larger chunks amortise the overhead.
	chunked := Dynamic(work, 12, 64, 0.5)
	if chunked >= withOv {
		t.Errorf("chunked dynamic %g not better than chunk-1 %g", chunked, withOv)
	}
}

func TestCollapsedStaticBeatsOuterStatic(t *testing.T) {
	// The headline comparison behind Fig. 9: collapsing a triangular
	// 2-loop space gives near-perfect balance vs outer-loop static.
	N := 800
	outer := triangularWork(N)
	P := 12
	outerStatic := Static(outer, P, 0)
	totalIters := int64(Total(outer)) // one unit per (i,j) pair
	collapsed := UniformStatic(totalIters, 1, P, 50 /* recovery cost */)
	if collapsed >= outerStatic {
		t.Errorf("collapsed %g not better than outer static %g", collapsed, outerStatic)
	}
	gain := Gain(outerStatic, collapsed)
	if gain < 0.3 {
		t.Errorf("gain %g < 0.3 for triangular space with 12 threads", gain)
	}
}

func TestStaticChunkBetterThanStaticOnTriangle(t *testing.T) {
	work := triangularWork(600)
	P := 6
	s := Static(work, P, 0)
	sc := StaticChunk(work, P, 1, 0)
	if sc >= s {
		t.Errorf("cyclic static %g not better than block static %g on triangle", sc, s)
	}
}

func TestGain(t *testing.T) {
	if g := Gain(10, 5); g != 0.5 {
		t.Errorf("Gain(10,5) = %g", g)
	}
	if g := Gain(0, 5); g != 0 {
		t.Errorf("Gain(0,5) = %g", g)
	}
	if g := Gain(10, 12); g != -0.2 {
		t.Errorf("Gain(10,12) = %g", g)
	}
}

func TestUniformStaticEdge(t *testing.T) {
	if got := UniformStatic(0, 1, 4, 10); got != 0 {
		t.Errorf("empty = %g", got)
	}
	// 10 units, 4 threads -> slowest runs 3 units.
	if got := UniformStatic(10, 2, 4, 1); math.Abs(got-7) > 1e-9 {
		t.Errorf("UniformStatic = %g, want 7", got)
	}
}

func TestFormatLoads(t *testing.T) {
	lines := FormatLoads([]float64{10, 5, 0}, 10)
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "##########") {
		t.Errorf("max load not full width: %q", lines[0])
	}
	if strings.Contains(lines[2], "#") {
		t.Errorf("zero load has bars: %q", lines[2])
	}
}

func TestEmptyWork(t *testing.T) {
	if Static(nil, 4, 5) != 0 {
		t.Error("Static(nil) != 0")
	}
	if Dynamic(nil, 4, 1, 5) != 0 {
		t.Error("Dynamic(nil) != 0")
	}
	if Guided(nil, 4, 1, 5) != 0 {
		t.Error("Guided(nil) != 0")
	}
	if LowerBound(nil, 4) != 0 {
		t.Error("LowerBound(nil) != 0")
	}
}

// The satellite property: every simulated makespan is at least the
// trivial lower bound max(total/P, max unit), across randomized work
// vectors, thread counts, chunk sizes and cost models, for every
// policy. Overheads can only add time, so the bound holds with or
// without them.
func TestSimulateMakespanAtLeastLowerBound(t *testing.T) {
	pols := []PolicyKind{PolicyStatic, PolicyStaticChunk, PolicyDynamic, PolicyGuided}
	f := func(seed int64, p8, c8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		P := int(p8%16) + 1
		n := r.Intn(200)
		work := make([]float64, n)
		for i := range work {
			work[i] = r.Float64() * 100
		}
		lb := LowerBound(work, P)
		chunk := int(c8%64) + 1
		cm := CostModel{PerChunk: r.Float64() * 5, PerDequeue: r.Float64() * 2}
		for _, k := range pols {
			for _, m := range []CostModel{{}, cm} {
				ms, loads := Simulate(work, P, Policy{Kind: k, Chunk: chunk}, m)
				if ms < lb-1e-9 {
					return false
				}
				// The makespan is the max per-thread load, and loads
				// conserve the total work (plus nonnegative overheads).
				var sum, maxL float64
				for _, l := range loads {
					sum += l
					if l > maxL {
						maxL = l
					}
				}
				if math.Abs(maxL-ms) > 1e-9 || sum < Total(work)-1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The fix the planner relies on: dynamic/guided pay the measured
// per-chunk recovery on every grab, so chunk-1 dynamic on a collapsed
// loop is penalized by recovery x iterations, exactly the §V cost the
// legacy constant-only simulation missed.
func TestDynamicChargesPerChunkRecovery(t *testing.T) {
	work := make([]float64, 1000)
	for i := range work {
		work[i] = 1
	}
	cm := CostModel{PerChunk: 10, PerDequeue: 0.5}
	small := Makespan(work, 4, Policy{Kind: PolicyDynamic, Chunk: 1}, cm)
	big := Makespan(work, 4, Policy{Kind: PolicyDynamic, Chunk: 100}, cm)
	if small <= big {
		t.Fatalf("chunk-1 dynamic %g not worse than chunk-100 %g under recovery cost", small, big)
	}
	// 1000 chunks across 4 threads, 10.5 overhead each: >= 250*10.5.
	if small < 250*10.5 {
		t.Fatalf("chunk-1 dynamic %g does not reflect per-chunk recovery", small)
	}
	// Legacy Dynamic (dequeue only) must still match the engine with
	// PerChunk = 0.
	if got, want := Dynamic(work, 4, 7, 0.5),
		Makespan(work, 4, Policy{Kind: PolicyDynamic, Chunk: 7}, CostModel{PerDequeue: 0.5}); got != want {
		t.Fatalf("legacy Dynamic %g != engine %g", got, want)
	}
}
