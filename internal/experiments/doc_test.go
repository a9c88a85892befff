package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestSuiteRows pins every legacy report's flattening: the exact
// (case, metric, direction) rows, whose names the gates' metric filters
// and the committed baselines depend on, and the direction rule — cost
// rows are lower-is-better, ratio and throughput rows higher, with
// auto_vs_best (auto over the best hand pick) the one ratio that is a
// cost.
func TestSuiteRows(t *testing.T) {
	p := map[string]int64{"N": 100}
	cases := []struct {
		suite string
		doc   BenchDoc
		want  []string
	}{
		{"overhead", (&OverheadReport{Threads: 1, Reps: 3, Kernels: []OverheadRow{{
			Kernel: "syrk", Params: p, OriginalNsPerIter: 2, RecoverEveryNsPerIter: 90,
			Schedules: []OverheadSched{{Schedule: "dynamic,64",
				PerIterNs: 15, RangesNs: 4, SpeedupRanges: 3.75}},
		}}}).Doc(), []string{
			"syrk original_ns_per_iter lower",
			"syrk recover_every_ns_per_iter lower",
			"syrk per_iter_ns[dynamic,64] lower",
			"syrk ranges_ns[dynamic,64] lower",
			"syrk speedup_ranges[dynamic,64] higher",
		}},
		{"compile", (&CompileReport{Kernels: []CompileRow{{
			Kernel: "correlation", Depth: 3, C: 2, ColdSerialUs: 100, CachedUs: 5, SpeedupCached: 20,
		}}}).Doc(), []string{
			"correlation cold_serial_us lower",
			"correlation cached_us lower",
			"correlation speedup_cached_vs_cold higher",
		}},
		{"serve", (&ServeReport{Nest: "i=0:N-1; j=i+1:N", Mix: "rank=1", Phases: []ServeRow{{
			Phase: "2x", TargetQPS: 800, AchievedQPS: 700, P50Ms: 0.4, P99Ms: 2.5, ShedRate: 0.05,
		}}}).Doc(), []string{
			"phase:2x achieved_qps higher",
			"phase:2x p50_ms lower",
			"phase:2x p99_ms lower",
			"phase:2x shed_rate lower",
		}},
		{"dist", (&DistReport{Nest: "triangle", Scenarios: []DistRow{{
			Scenario: "chaos-kill", Workers: 4, Total: 1000, MIterPerSec: 30, OverheadPct: 50,
		}}}).Doc(), []string{
			"dist:chaos-kill miter_per_sec higher",
			"dist:chaos-kill overhead_pct lower",
		}},
		{"invert", (&InvertReport{Nests: []InvertRow{
			{Nest: "triangular2", Params: p, Chunks: []InvertChunk{{ChunkPC: 64,
				SearchRecPerSec: 1e6, TableRecPerSec: 1e7, SpeedupTable: 10, ClosedNs: 50, SpeedupClosed: 20}}},
			{Nest: "simplex5-deg5", Params: p, SearchOnly: true, Chunks: []InvertChunk{{ChunkPC: 1,
				SearchRecPerSec: 1e6, TableRecPerSec: 1e7, SpeedupTable: 10}}},
		}}).Doc(), []string{
			"invert:triangular2/chunk=64 search_recoveries_per_sec higher",
			"invert:triangular2/chunk=64 table_recoveries_per_sec higher",
			"invert:triangular2/chunk=64 speedup_table_vs_search higher",
			"invert:triangular2/chunk=64 closed_ns_per_recovery lower",
			"invert:triangular2/chunk=64 speedup_closed_vs_search higher",
			"invert:simplex5-deg5/chunk=1 search_recoveries_per_sec higher",
			"invert:simplex5-deg5/chunk=1 table_recoveries_per_sec higher",
			"invert:simplex5-deg5/chunk=1 speedup_table_vs_search higher",
		}},
		{"autotune", (&AutotuneReport{Threads: 12, Kernels: []AutotuneRow{{
			Kernel: "ltmp", Params: p, AutoSec: 0.010, BestSec: 0.0095, AutoVsBest: 1.05, WorstVsAuto: 3,
		}}}).Doc(), []string{
			"autotune:ltmp auto_sec lower",
			"autotune:ltmp best_sec lower",
			"autotune:ltmp auto_vs_best lower",
			"autotune:ltmp worst_vs_auto higher",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.suite, func(t *testing.T) {
			if tc.doc.Suite != tc.suite {
				t.Errorf("Doc().Suite = %q", tc.doc.Suite)
			}
			var got []string
			for _, r := range tc.doc.Rows {
				got = append(got, fmt.Sprintf("%s %s %s", r.Case, r.Metric, r.Better))
				if r.Params == nil {
					t.Errorf("%s/%s: no params", r.Case, r.Metric)
				}
				if want := ruleDirection(r.Metric); r.Better != want {
					t.Errorf("%s/%s: better %q, want %q", r.Case, r.Metric, r.Better, want)
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("rows:\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}

// ruleDirection is the naming rule the rows follow: speedups,
// throughputs and the worst-over-auto ratio are higher-is-better;
// costs (times, latencies, shed and overhead shares) and auto-over-best
// are lower-is-better.
func ruleDirection(metric string) string {
	if strings.HasPrefix(metric, "speedup") || strings.HasSuffix(metric, "_per_sec") ||
		strings.HasSuffix(metric, "_qps") || metric == "worst_vs_auto" {
		return Higher
	}
	return Lower
}
