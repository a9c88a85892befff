package omp

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
	"repro/internal/unrank"
)

// Live progress instrumentation: per-worker gauges updated at chunk
// boundaries so a mid-run scrape of the registry (the obs plane's
// /metrics endpoint) shows imbalance as it happens rather than in a
// post-hoc report. Metric names embed the worker id and the executing
// schedule as Prometheus labels
// ("omp.worker_chunks{tid=\"3\",sched=\"guided\"}"); the OpenMetrics
// exporter splits name and label set apart, so the per-worker series
// group into one family, and the schedule label makes an autotuned
// run's chosen schedule visible on /metrics and /snapshot.
//
// All updates are atomic stores/adds on pre-fetched handles — no map
// lookups, no allocations on the chunk path — and the whole layer is
// skipped when telemetry is disabled (newLiveTeam returns nil, every
// method is a nil-safe no-op).
type liveTeam struct {
	teamSize *telemetry.Gauge
	chunks   []*telemetry.Counter // chunks completed, per worker
	iters    []*telemetry.Counter // iterations completed, per worker
	// inflight holds the monotonic trace offset (ns) at which the
	// worker's current chunk started, 0 when idle: a scraper derives the
	// in-flight chunk age as scrape_now_ns - inflight_since_ns.
	inflight []*telemetry.Gauge
	unrank   *unrankCounters
}

// newLiveTeam pre-fetches the per-worker metric handles (nil when
// telemetry is off). sched is the executing schedule's clause spelling,
// attached as a label so scrapes can attribute the series — and, for
// autotuned runs, see which schedule the planner chose.
func newLiveTeam(tel *telemetry.Registry, threads int, sched Kind) *liveTeam {
	if tel == nil {
		return nil
	}
	l := &liveTeam{
		teamSize: tel.Gauge("omp.team_size"),
		chunks:   make([]*telemetry.Counter, threads),
		iters:    make([]*telemetry.Counter, threads),
		inflight: make([]*telemetry.Gauge, threads),
		unrank:   newUnrankCounters(tel),
	}
	for t := 0; t < threads; t++ {
		tid := fmt.Sprint(t)
		l.chunks[t] = tel.Counter(fmt.Sprintf("omp.worker_chunks{tid=%q,sched=%q}", tid, sched))
		l.iters[t] = tel.Counter(fmt.Sprintf("omp.worker_iterations{tid=%q,sched=%q}", tid, sched))
		l.inflight[t] = tel.Gauge(fmt.Sprintf("omp.worker_inflight_since_ns{tid=%q,sched=%q}", tid, sched))
	}
	l.teamSize.Set(int64(threads))
	return l
}

// chunkStart marks the worker as in-flight since the given monotonic
// trace offset.
func (l *liveTeam) chunkStart(tid int, since time.Duration) {
	if l == nil {
		return
	}
	l.inflight[tid].Set(since.Nanoseconds())
}

// chunkEnd publishes the completed chunk: progress counters advance,
// the in-flight marker clears, and the worker's unranker counter deltas
// accumulated during the chunk land on the registry.
func (l *liveTeam) chunkEnd(tid int, iters int64, delta unrank.Stats) {
	if l == nil {
		return
	}
	l.chunks[tid].Inc()
	l.iters[tid].Add(iters)
	l.inflight[tid].Set(0)
	l.unrank.publish(delta)
}

// publishRemainder adds the end-of-run remainder delta (stats accrued
// outside chunk boundaries, e.g. during Bind) to the counters.
func (l *liveTeam) publishRemainder(d unrank.Stats) {
	if l == nil {
		return
	}
	l.unrank.publish(d)
}

// unrankCounters holds pre-fetched handles for the recovery counters so
// per-chunk publication costs only atomic adds.
type unrankCounters struct {
	rootEvals, corrections, fallbacks, searches, bigint *telemetry.Counter
	tableLookups, tableCorrections                      *telemetry.Counter
}

func newUnrankCounters(tel *telemetry.Registry) *unrankCounters {
	if tel == nil {
		return nil
	}
	return &unrankCounters{
		rootEvals:   tel.Counter("unrank.root_evals"),
		corrections: tel.Counter("unrank.corrections"),
		fallbacks:   tel.Counter("unrank.fallbacks"),
		searches:    tel.Counter("unrank.searches"),
		bigint:      tel.Counter("unrank.bigint_paths"),

		tableLookups:     tel.Counter("unrank.table_lookups"),
		tableCorrections: tel.Counter("unrank.table_corrections"),
	}
}

// publish adds a stats delta to the counters (no-op on nil receiver or
// an all-zero delta).
func (u *unrankCounters) publish(d unrank.Stats) {
	if u == nil {
		return
	}
	u.rootEvals.Add(d.RootEvals)
	u.corrections.Add(d.Corrections)
	u.fallbacks.Add(d.Fallbacks)
	u.searches.Add(d.Searches)
	u.bigint.Add(d.BigIntPaths)
	u.tableLookups.Add(d.TableLookups)
	u.tableCorrections.Add(d.TableCorrections)
}
