package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/nest"
	"repro/internal/unrank"
)

// ---------------------------------------------------------------------
// Invert suite — the recovery-throughput comparison behind the
// breakpoint-table tier: for a set of representative nest shapes and a
// sweep of chunk sizes, how fast can the runtime resolve the chunk-start
// ranks a schedule hands out?
//
//   - per-pc exact binary search (unrank.ModeBinarySearch, the oracle
//     and the only pre-table option for ranking degree > 4);
//   - per-pc breakpoint-table recovery (unrank.ModeTable: O(log depth)
//     monotone table lookup + exact short correction, bit-identical to
//     the oracle);
//   - batched table recovery (unrank.Bound.RecoverBatch: all chunk
//     starts of the space resolved in one ascending pass, sharing
//     recovery prefixes between neighbours).
//
// The headline case is the degree-5 simplex at chunk 1 — a shape the
// closed-form inverter cannot touch (beyond radical solvability), where
// the table tier must beat per-pc binary search by a wide margin. This
// suite is the source of BENCH_PR9.json (`make invertgate-baseline`).
// ---------------------------------------------------------------------

// InvertChunk is one chunk-size cell of a nest's comparison.
type InvertChunk struct {
	ChunkPC int64 `json:"chunk_pc"`
	// Recoveries is how many chunk-start ranks were resolved per
	// traversal (capped at MaxStarts; Capped reports a hit cap).
	Recoveries int64 `json:"recoveries"`
	Capped     bool  `json:"capped,omitempty"`
	// Per-recovery cost of each engine, nanoseconds.
	SearchNs float64 `json:"search_ns_per_recovery"`
	TableNs  float64 `json:"table_ns_per_recovery"`
	BatchNs  float64 `json:"batch_ns_per_recovery"`
	// Recoveries per second of each engine (the higher-is-better view).
	SearchRecPerSec float64 `json:"search_recoveries_per_sec"`
	TableRecPerSec  float64 `json:"table_recoveries_per_sec"`
	BatchRecPerSec  float64 `json:"batch_recoveries_per_sec"`
	// Speedups over per-pc binary search (>1: the table tier wins).
	SpeedupTable float64 `json:"speedup_table_vs_search"`
	SpeedupBatch float64 `json:"speedup_batch_vs_search"`
	// Table-tier counters per traversal: lookups that hit a table and
	// exact corrections spent confirming strided segments.
	TableLookups     int64 `json:"table_lookups"`
	TableCorrections int64 `json:"table_corrections"`
}

// InvertRow is one nest's full comparison.
type InvertRow struct {
	Nest   string           `json:"nest"`
	Params map[string]int64 `json:"params"`
	Depth  int              `json:"depth"`
	Degree int              `json:"ranking_degree"`
	// SearchOnly marks shapes beyond radical solvability (degree > 4):
	// before the table tier, binary search was their only inverter.
	SearchOnly bool          `json:"search_only"`
	Total      int64         `json:"iterations"`
	Chunks     []InvertChunk `json:"chunks"`
}

// InvertReport is the machine-readable document written to
// BENCH_PR9.json.
type InvertReport struct {
	Suite string      `json:"suite"` // "invert"
	Meta  BenchMeta   `json:"meta"`
	Quick bool        `json:"quick"`
	Reps  int         `json:"reps"`
	Rows  []InvertRow `json:"nests"`
}

// InvertOptions configure the suite.
type InvertOptions struct {
	Quick bool // small problem sizes (CI smoke) instead of bench sizes
	// Reps is the best-of repetition count per timing (default 3; 1 in
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
	rep := &InvertReport{
		Suite: "invert",
		Meta:  NewBenchMeta(),
		Quick: opts.Quick,
		Reps:  opts.Reps,
	}
	for _, c := range invertCases() {
		row, err := invertNest(c, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		rep.Rows = append(rep.Rows, row)
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
	total := bS.Total()
	row.Total = total

	for _, chunk := range opts.ChunkSizes {
		cell, err := invertChunk(bS, bT, total, chunk, opts)
		if err != nil {
			return row, fmt.Errorf("chunk %d: %w", chunk, err)
		}
		opts.Verbose("%s chunk %d: search %.0f ns, table %.0f ns (x%.2f), batch %.0f ns (x%.2f) per recovery",
			c.name, chunk, cell.SearchNs, cell.TableNs, cell.SpeedupTable,
			cell.BatchNs, cell.SpeedupBatch)
		row.Chunks = append(row.Chunks, cell)
	}
	return row, nil
}

func invertChunk(bS, bT *unrank.Bound, total, chunk int64, opts InvertOptions) (InvertChunk, error) {
	cell := InvertChunk{ChunkPC: chunk}
	// The chunk starts a schedule would hand out, ascending, capped.
	pcs := make([]int64, 0, min64(opts.MaxStarts, (total+chunk-1)/chunk))
	for pc := int64(1); pc <= total; pc += chunk {
		if int64(len(pcs)) == opts.MaxStarts {
			cell.Capped = true
			break
		}
		pcs = append(pcs, pc)
		if pc > total-chunk {
			break
		}
	}
	cell.Recoveries = int64(len(pcs))
	depth := bS.Depth()
	idx := make([]int64, depth)
	backing := make([]int64, len(pcs)*depth)
	out := make([][]int64, len(pcs))
	for i := range out {
		out[i] = backing[i*depth : (i+1)*depth]
	}

	bestOf := func(f func() error) (float64, error) {
		best := -1.0
		for r := 0; r < opts.Reps; r++ {
			var ferr error
			s := secPerCallOver(opts.MinTime, func() {
				if err := f(); err != nil && ferr == nil {
					ferr = err
				}
			})
			if ferr != nil {
				return 0, ferr
			}
			if best < 0 || s < best {
				best = s
			}
		}
		return best, nil
	}
	perRec := func(sec float64) float64 { return sec / float64(len(pcs)) * 1e9 }

	searchSec, err := bestOf(func() error {
		for _, pc := range pcs {
			if err := bS.Unrank(pc, idx); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return cell, err
	}
	tableSec, err := bestOf(func() error {
		for _, pc := range pcs {
			if err := bT.Unrank(pc, idx); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return cell, err
	}
	pre := bT.Stats()
	batchSec, err := bestOf(func() error { return bT.RecoverBatch(pcs, out) })
	if err != nil {
		return cell, err
	}

	// Bit-identical answers are the whole point: cross-check the batch
	// output of the last traversal against the oracle.
	for i, pc := range pcs {
		if err := bS.Unrank(pc, idx); err != nil {
			return cell, err
		}
		for q, v := range idx {
			if out[i][q] != v {
				return cell, fmt.Errorf("pc %d: table/batch tuple %v differs from oracle %v", pc, out[i], idx)
			}
		}
	}

	delta := bT.Stats().Sub(pre)
	cell.TableLookups = delta.TableLookups
	cell.TableCorrections = delta.TableCorrections
	cell.SearchNs, cell.TableNs, cell.BatchNs = perRec(searchSec), perRec(tableSec), perRec(batchSec)
	if searchSec > 0 {
		cell.SearchRecPerSec = float64(len(pcs)) / searchSec
	}
	if tableSec > 0 {
		cell.TableRecPerSec = float64(len(pcs)) / tableSec
		cell.SpeedupTable = cell.SearchNs / cell.TableNs
	}
	if batchSec > 0 {
		cell.BatchRecPerSec = float64(len(pcs)) / batchSec
		cell.SpeedupBatch = cell.SearchNs / cell.BatchNs
	}
	return cell, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// WriteJSON writes the report as indented JSON.
func (r *InvertReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// RenderInvert prints the report as an aligned table.
func RenderInvert(r *InvertReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Invert suite — ns per chunk-start recovery (best of %d)\n", r.Reps)
	fmt.Fprintf(&b, "%-16s %7s %8s %10s %10s %10s %8s %8s\n",
		"nest", "chunk", "starts", "search", "table", "batch", "tbl-x", "batch-x")
	for _, row := range r.Rows {
		for _, s := range row.Chunks {
			fmt.Fprintf(&b, "%-16s %7d %8d %10.0f %10.0f %10.0f %7.2fx %7.2fx\n",
				row.Nest, s.ChunkPC, s.Recoveries, s.SearchNs, s.TableNs, s.BatchNs,
				s.SpeedupTable, s.SpeedupBatch)
		}
		note := ""
		if row.SearchOnly {
			note = "; degree > 4: search was the only pre-table inverter"
		}
		fmt.Fprintf(&b, "%-16s depth %d, degree %d, %d iterations%s\n",
			row.Nest, row.Depth, row.Degree, row.Total, note)
	}
	return b.String()
}
