package experiments

// ServeReport is the daemon's QPS/latency/shed-rate trajectory
// recorded by cmd/loadgen across a ladder of offered-load phases
// (open-loop Poisson arrivals). Doc is its BENCH_PR7.json document,
// which `make gate-serve` diffs against the committed baseline.
type ServeReport struct {
	// Nest and Mix describe the workload: the nest spec driven at the
	// daemon and the endpoint mix (e.g. "rank=4,unrank=4,count=1").
	Nest   string
	Mix    string
	Phases []ServeRow
}

// ServeRow is one offered-load phase of the trajectory.
type ServeRow struct {
	// Phase names the ladder step (e.g. "0.5x", "1x", "2x").
	Phase string
	// TargetQPS is the Poisson arrival rate the generator aimed for;
	// OfferedQPS what it actually issued; AchievedQPS the rate of
	// successful (2xx) answers.
	TargetQPS   float64
	OfferedQPS  float64
	AchievedQPS float64

	Rejected429 int64
	Errors5xx   int64

	// Latency quantiles of successful answers, milliseconds.
	P50Ms float64
	P99Ms float64
	// ShedRate is Rejected429 over requests sent — the fraction the
	// admission ladder turned away.
	ShedRate float64
}

// Rows flattens the trajectory. The target QPS is the comparability
// key: two runs are only apples-to-apples at the same offered load.
func (r *ServeReport) Rows() []BenchRow {
	var rows []BenchRow
	for _, ph := range r.Phases {
		add := caseRows(&rows, "phase:"+ph.Phase, map[string]int64{"target_qps": int64(ph.TargetQPS)})
		add("achieved_qps", Higher, ph.AchievedQPS)
		add("p50_ms", Lower, ph.P50Ms)
		add("p99_ms", Lower, ph.P99Ms)
		// More shedding at the same offered load means less served capacity.
		add("shed_rate", Lower, ph.ShedRate)
	}
	return rows
}

// Doc is the report as a BENCH_PR7.json document.
func (r *ServeReport) Doc() BenchDoc {
	return BenchDoc{Suite: "serve", Rows: r.Rows(), Config: config("nest", r.Nest, "mix", r.Mix)}
}
