package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/nest"
	"repro/internal/unrank"
)

// ---------------------------------------------------------------------
// Invert suite — the recovery-throughput comparison behind the
// breakpoint-table tier: for a set of representative nest shapes and a
// sweep of chunk sizes, how fast can the runtime resolve the chunk-start
// ranks a schedule hands out? Every engine recovers each start with one
// per-pc Unrank:
//
//   - exact binary search (unrank.ModeBinarySearch, the oracle and the
//     only pre-table option for ranking degree > 4);
//   - breakpoint-table recovery (unrank.ModeTable: O(log depth)
//     monotone table lookup + exact short correction, bit-identical to
//     the oracle);
//   - the paper's closed form (unrank.ModeClosedForm, the default:
//     float64 radicals, exact search as fallback), for every shape
//     within radical solvability.
//
// The headline case is the degree-5 simplex at chunk 1 — a shape the
// closed-form inverter cannot touch, where the table tier must beat
// per-pc binary search by a wide margin. Doc is the BENCH_PR9.json
// document (`make gate-baseline-invert`).
// ---------------------------------------------------------------------

// InvertChunk is one chunk-size cell of a nest's comparison.
type InvertChunk struct {
	ChunkPC int64
	// Recoveries is how many chunk-start ranks were resolved per
	// traversal (capped at MaxStarts).
	Recoveries int64
	// Per-recovery cost of each engine, nanoseconds (ClosedNs is 0 on
	// search-only shapes).
	SearchNs float64
	TableNs  float64
	ClosedNs float64
	// Recoveries per second of search and table (the higher-is-better
	// view).
	SearchRecPerSec float64
	TableRecPerSec  float64
	// Speedups over per-pc binary search, median within-round ratios
	// (>1: the faster inverter wins).
	SpeedupTable  float64
	SpeedupClosed float64
}

// InvertRow is one nest's full comparison.
type InvertRow struct {
	Nest   string
	Params map[string]int64
	Depth  int
	Degree int
	// SearchOnly marks shapes beyond radical solvability (degree > 4):
	// no closed form exists, and before the table tier binary search
	// was their only inverter.
	SearchOnly bool
	Total      int64
	Chunks     []InvertChunk
}

// InvertReport is the suite's result; Doc is its BENCH_PR9.json
// document.
type InvertReport struct {
	Quick bool
	Reps  int
	Nests []InvertRow
}

// InvertOptions configure the suite.
type InvertOptions struct {
	Quick bool // small problem sizes (CI smoke) instead of bench sizes
	// Reps is the number of alternated timing rounds (default 3; 1 in
	// Quick mode).
	Reps int
	// MinTime is the minimum accumulated duration per timing sample
	// (default 25ms; 2ms in Quick mode).
	MinTime time.Duration
	// ChunkSizes to sweep (default 1, 64, 4096 — the §VI.A per-iteration
	// extreme, a SIMD-width batch, and the shard engine's default).
	ChunkSizes []int64
	// MaxStarts caps the chunk-start count measured per cell (default
	// 16384; 2048 in Quick mode) so chunk-1 cells stay bounded.
	MaxStarts int64
	Verbose   func(format string, args ...interface{})
}

func (o *InvertOptions) fill() {
	if o.Reps <= 0 {
		o.Reps = 3
		if o.Quick {
			o.Reps = 1
		}
	}
	if o.MinTime <= 0 {
		o.MinTime = 25 * time.Millisecond
		if o.Quick {
			o.MinTime = 2 * time.Millisecond
		}
	}
	if len(o.ChunkSizes) == 0 {
		o.ChunkSizes = []int64{1, 64, 4096}
	}
	if o.MaxStarts <= 0 {
		o.MaxStarts = 16384
		if o.Quick {
			o.MaxStarts = 2048
		}
	}
	if o.Verbose == nil {
		o.Verbose = func(string, ...interface{}) {}
	}
}

// invertCase is one nest shape of the sweep. Sizes are chosen so the
// bench run exercises strided tables (ranges near or above the default
// table budget) while totals stay well inside the int64 pc range.
type invertCase struct {
	name       string
	loops      []nest.Loop
	quickN     int64
	benchN     int64
	searchOnly bool
}

func invertCases() []invertCase {
	return []invertCase{
		{
			name:   "triangular2",
			loops:  []nest.Loop{nest.L("i", "0", "N-1"), nest.L("j", "i+1", "N")},
			quickN: 300, benchN: 4096,
		},
		{
			name:   "tetrahedral3",
			loops:  []nest.Loop{nest.L("i", "0", "N"), nest.L("j", "0", "i+1"), nest.L("k", "0", "j+1")},
			quickN: 64, benchN: 1024,
		},
		{
			name: "simplex5-deg5",
			loops: []nest.Loop{
				nest.L("a", "0", "N"), nest.L("b", "0", "a+1"), nest.L("c", "0", "b+1"),
				nest.L("d", "0", "c+1"), nest.L("e", "0", "d+1"),
			},
			quickN: 40, benchN: 4096,
			searchOnly: true,
		},
	}
}

// Invert runs the suite over every case.
func Invert(opts InvertOptions) (*InvertReport, error) {
	opts.fill()
	rep := &InvertReport{Quick: opts.Quick, Reps: opts.Reps}
	for _, c := range invertCases() {
		row, err := invertNest(c, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		rep.Nests = append(rep.Nests, row)
	}
	return rep, nil
}

func invertNest(c invertCase, opts InvertOptions) (InvertRow, error) {
	nv := c.benchN
	if opts.Quick {
		nv = c.quickN
	}
	params := map[string]int64{"N": nv}
	row := InvertRow{
		Nest: c.name, Params: params,
		Depth: len(c.loops), SearchOnly: c.searchOnly,
	}
	n, err := nest.New([]string{"N"}, c.loops...)
	if err != nil {
		return row, err
	}
	// The oracle: exact per-pc binary search (no symbolic machinery).
	resS, err := core.Collapse(n, len(c.loops), unrank.Options{Mode: unrank.ModeBinarySearch})
	if err != nil {
		return row, err
	}
	// The table tier under test. The budget is raised one notch above
	// the default so bench-size outer levels (range N+1) stay dense;
	// deeper configurations still exercise the strided path.
	resT, err := core.Collapse(n, len(c.loops), unrank.Options{
		Mode: unrank.ModeTable, TableMaxEntries: 1 << 13,
	})
	if err != nil {
		return row, err
	}
	row.Degree = resS.Ranking.TotalDegree()
	bS, err := resS.Unranker.Bind(params)
	if err != nil {
		return row, err
	}
	bT, err := resT.Unranker.Bind(params)
	if err != nil {
		return row, err
	}
	// The paper's closed form, wherever the ranking is radical-solvable.
	var bC *unrank.Bound
	if !c.searchOnly {
		resC, err := core.Collapse(n, len(c.loops), unrank.Options{})
		if err != nil {
			return row, err
		}
		if bC, err = resC.Unranker.Bind(params); err != nil {
			return row, err
		}
	}
	total := bS.Total()
	row.Total = total

	for _, chunk := range opts.ChunkSizes {
		cell, err := invertChunk(bS, bT, bC, total, chunk, opts)
		if err != nil {
			return row, fmt.Errorf("chunk %d: %w", chunk, err)
		}
		opts.Verbose("%s chunk %d: search %.0f ns, table %.0f ns (x%.2f), closed %.0f ns (x%.2f) per recovery",
			c.name, chunk, cell.SearchNs, cell.TableNs, cell.SpeedupTable,
			cell.ClosedNs, cell.SpeedupClosed)
		row.Chunks = append(row.Chunks, cell)
	}
	return row, nil
}

// invertChunk times per-pc recovery of one chunk size's starts on the
// search, table and (when bC is non-nil) closed-form bounds, and checks
// every engine's tuples against the search oracle.
func invertChunk(bS, bT, bC *unrank.Bound, total, chunk int64, opts InvertOptions) (InvertChunk, error) {
	cell := InvertChunk{ChunkPC: chunk}
	// The chunk starts a schedule would hand out, ascending, capped.
	pcs := make([]int64, 0, min(opts.MaxStarts, (total+chunk-1)/chunk))
	for pc := int64(1); pc <= total; pc += chunk {
		if int64(len(pcs)) == opts.MaxStarts {
			break
		}
		pcs = append(pcs, pc)
		if pc > total-chunk {
			break
		}
	}
	cell.Recoveries = int64(len(pcs))
	idx := make([]int64, bS.Depth())
	want := make([]int64, bS.Depth())

	// The engines are timed in alternation; a speedup over search is
	// judged within a round.
	var uerr error
	recoverAll := func(b *unrank.Bound) func() {
		return func() {
			for _, pc := range pcs {
				if err := b.Unrank(pc, idx); err != nil && uerr == nil {
					uerr = err
				}
			}
		}
	}
	alts := []func(){recoverAll(bS), recoverAll(bT)}
	if bC != nil {
		alts = append(alts, recoverAll(bC))
	}
	secs := autotune.Alternate(opts.Reps, opts.MinTime, nil, alts...)
	if uerr != nil {
		return cell, uerr
	}
	nsPerRecovery := func(a int) float64 { return autotune.Best(secs, a) / float64(len(pcs)) * 1e9 }
	// Bit-identical answers are the whole point: every engine must
	// agree with the oracle on every start.
	check := func(b *unrank.Bound, name string) error {
		for _, pc := range pcs {
			if err := bS.Unrank(pc, want); err != nil {
				return err
			}
			if err := b.Unrank(pc, idx); err != nil {
				return err
			}
			for q, v := range want {
				if idx[q] != v {
					return fmt.Errorf("pc %d: %s tuple %v differs from oracle %v", pc, name, idx, want)
				}
			}
		}
		return nil
	}

	cell.SearchNs, cell.TableNs = nsPerRecovery(0), nsPerRecovery(1)
	if err := check(bT, "table"); err != nil {
		return cell, err
	}
	cell.SearchRecPerSec = 1e9 / cell.SearchNs
	cell.TableRecPerSec = 1e9 / cell.TableNs
	cell.SpeedupTable = autotune.MedianRatio(secs, 0, 1)
	if bC != nil {
		cell.ClosedNs = nsPerRecovery(2)
		if err := check(bC, "closed-form"); err != nil {
			return cell, err
		}
		cell.SpeedupClosed = autotune.MedianRatio(secs, 0, 2)
	}
	return cell, nil
}

// Rows flattens the report into one case per nest and chunk size; the
// problem size is the comparability key. The gated machine-independent
// rows are the speedups over per-pc search. Search-only shapes have no
// closed-form rows.
func (r *InvertReport) Rows() []BenchRow {
	var rows []BenchRow
	for _, n := range r.Nests {
		for _, c := range n.Chunks {
			add := caseRows(&rows, fmt.Sprintf("invert:%s/chunk=%d", n.Nest, c.ChunkPC), n.Params)
			add("search_recoveries_per_sec", Higher, c.SearchRecPerSec)
			add("table_recoveries_per_sec", Higher, c.TableRecPerSec)
			add("speedup_table_vs_search", Higher, c.SpeedupTable)
			if !n.SearchOnly {
				add("closed_ns_per_recovery", Lower, c.ClosedNs)
				add("speedup_closed_vs_search", Higher, c.SpeedupClosed)
			}
		}
	}
	return rows
}

// Doc is the report as a BENCH_PR9.json document.
func (r *InvertReport) Doc() BenchDoc {
	return BenchDoc{Suite: "invert", Rows: r.Rows(), Config: config("quick", r.Quick, "reps", r.Reps)}
}

// RenderInvert prints the report as an aligned table.
func RenderInvert(r *InvertReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Invert suite — ns per chunk-start recovery (best of %d alternated rounds)\n", r.Reps)
	fmt.Fprintf(&b, "%-16s %7s %8s %10s %10s %10s %8s %8s\n",
		"nest", "chunk", "starts", "search", "table", "closed", "tbl-x", "closed-x")
	for _, row := range r.Nests {
		for _, s := range row.Chunks {
			closed, closedX := "-", "-"
			if !row.SearchOnly {
				closed, closedX = fmt.Sprintf("%.0f", s.ClosedNs), fmt.Sprintf("%.2fx", s.SpeedupClosed)
			}
			fmt.Fprintf(&b, "%-16s %7d %8d %10.0f %10.0f %10s %7.2fx %8s\n",
				row.Nest, s.ChunkPC, s.Recoveries, s.SearchNs, s.TableNs, closed,
				s.SpeedupTable, closedX)
		}
		note := ""
		if row.SearchOnly {
			note = "; degree > 4: no closed form, search was the only pre-table inverter"
		}
		fmt.Fprintf(&b, "%-16s depth %d, degree %d, %d iterations%s\n",
			row.Nest, row.Depth, row.Degree, row.Total, note)
	}
	return b.String()
}
