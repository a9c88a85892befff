// Command rankq answers ranking/unranking queries about affine loop
// nests: the total iteration count, the rank of a given iteration tuple,
// the tuple at a given rank, the ranking polynomial itself, and the
// symbolic convenient roots.
//
// The nest is given with -nest as semicolon-separated loops
// "index=lower:upper" (upper exclusive), parameters bound with repeated
// -p name=value flags:
//
//	rankq -nest 'i=0:N-1; j=i+1:N' -p N=10 total
//	rankq -nest 'i=0:N-1; j=i+1:N' -p N=10 rank 3 5
//	rankq -nest 'i=0:N-1; j=i+1:N' -p N=10 unrank 29
//	rankq -nest 'i=0:N-1; j=i+1:N' -p N=1000 run
//	rankq -nest 'i=0:N-1; j=i+1:N' poly
//	rankq -nest 'i=0:N-1; j=i+1:N' roots
//
// The `run` command executes the collapsed nest on the parallel runtime
// (-threads workers). -deadline DUR bounds any run with a
// context.WithTimeout — the same deadline path the collapsed daemon
// enforces per request; on expiry the team stops cooperatively at a
// chunk boundary and the typed faults.ErrCanceled class is reported.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/big"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/ehrhart"
	"repro/internal/faults"
	"repro/internal/nest"
	"repro/internal/omp"
	"repro/internal/poly"
	"repro/internal/roots"
	"repro/internal/unrank"
)

// collapseCache memoizes the symbolic build across the queries of one
// invocation (e.g. a script piping many nests through one process via
// `roots` followed by rank/unrank queries): structurally identical nests
// compile once. The cache key includes the recovery mode, so -mode
// variants of the same nest coexist.
var collapseCache = core.NewCollapseCache(16)

// recoveryMode is the -mode selection (closed-form by default),
// threaded into every collapse this invocation performs.
var recoveryMode unrank.Mode

// build compiles (or cache-hits) the collapse of the whole nest.
func build(n *nest.Nest) (*core.Result, error) {
	return core.CollapseCached(collapseCache, n, n.Depth(), unrank.Options{Mode: recoveryMode})
}

type paramFlags map[string]int64

func (p paramFlags) String() string { return fmt.Sprint(map[string]int64(p)) }

func (p paramFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want name=value, got %q", s)
	}
	v, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
	if err != nil {
		return err
	}
	p[strings.TrimSpace(name)] = v
	return nil
}

func main() {
	nestSpec := flag.String("nest", "", "loops as 'i=lo:hi; j=lo:hi; ...' (hi exclusive)")
	params := paramFlags{}
	flag.Var(params, "p", "parameter binding name=value (repeatable)")
	deadline := flag.Duration("deadline", 0, "wall-clock budget for the query (0: none); an expired run stops at a chunk boundary with ErrCanceled")
	threads := flag.Int("threads", omp.DefaultThreads(), "team size for the run command")
	// The default dynamic,4096 keeps chunks short, so a -deadline is
	// observed at chunk boundaries promptly.
	sched := flag.String("sched", "dynamic,4096", "schedule for the run command: static|static,N|dynamic[,N]|guided[,N]|auto (auto lets the autotuner pick schedule, chunk and team size)")
	mode := flag.String("mode", "closed-form", "index recovery mode: closed-form (radical roots), search (exact binary search), or table (precomputed breakpoint tables; like search, accepts degree > 4)")
	flag.Parse()

	var err error
	if recoveryMode, err = unrank.ParseMode(*mode); err != nil {
		fmt.Fprintln(os.Stderr, "rankq:", err)
		os.Exit(1)
	}
	if err := run(*nestSpec, params, *deadline, *threads, *sched, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "rankq:", err)
		os.Exit(1)
	}
}

func parseNest(spec string, params paramFlags) (*nest.Nest, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("missing -nest")
	}
	var loops []nest.Loop
	indexSet := map[string]bool{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, bounds, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("loop %q: want index=lo:hi", part)
		}
		loSrc, hiSrc, ok := strings.Cut(bounds, ":")
		if !ok {
			return nil, fmt.Errorf("loop %q: want index=lo:hi", part)
		}
		lo, err := poly.Parse(loSrc)
		if err != nil {
			return nil, fmt.Errorf("loop %q lower: %w", part, err)
		}
		hi, err := poly.Parse(hiSrc)
		if err != nil {
			return nil, fmt.Errorf("loop %q upper: %w", part, err)
		}
		idx := strings.TrimSpace(name)
		loops = append(loops, nest.Loop{Index: idx, Lower: lo, Upper: hi})
		indexSet[idx] = true
	}
	// Free identifiers become parameters.
	pset := map[string]bool{}
	for _, l := range loops {
		for _, v := range append(l.Lower.Vars(), l.Upper.Vars()...) {
			if !indexSet[v] {
				pset[v] = true
			}
		}
	}
	var ps []string
	for p := range pset {
		ps = append(ps, p)
	}
	// Deterministic order.
	for i := 0; i < len(ps); i++ {
		for j := i + 1; j < len(ps); j++ {
			if ps[j] < ps[i] {
				ps[i], ps[j] = ps[j], ps[i]
			}
		}
	}
	return nest.New(ps, loops...)
}

func run(nestSpec string, params paramFlags, deadline time.Duration, threads int, sched string, args []string) error {
	n, err := parseNest(nestSpec, params)
	if err != nil {
		return err
	}
	if len(args) == 0 {
		return fmt.Errorf("missing command: total|rank|unrank|run|poly|roots|list")
	}
	cmd, rest := args[0], args[1:]

	switch cmd {
	case "poly":
		fmt.Printf("r(%s) = %s\n", strings.Join(n.Indices(), ", "), ehrhart.Ranking(n))
		fmt.Printf("count = %s\n", ehrhart.Count(n))
		return nil
	case "roots":
		if recoveryMode != unrank.ModeClosedForm {
			return fmt.Errorf("the %s mode selects no symbolic roots; rerun with -mode closed-form", recoveryMode)
		}
		res, err := build(n)
		if err != nil {
			return err
		}
		u := res.Unranker
		for k := 0; k < n.Depth()-1; k++ {
			fmt.Printf("%s = floor(Re( %s ))\n", n.Loops[k].Index, roots.String(u.RootExpr(k)))
		}
		fmt.Printf("%s: direct formula (pc minus rank of prefix lexmin)\n", n.Loops[n.Depth()-1].Index)
		return nil
	case "run":
		return runCollapsed(n, params, deadline, threads, sched)
	}

	res, err := build(n)
	if err != nil {
		return err
	}
	u := res.Unranker
	b, err := u.Bind(params)
	if err != nil {
		// Domains whose iteration count exceeds the int64 pc range
		// cannot be unranked, but their exact cardinality still exists:
		// answer "total" from the counting polynomial over big.Rat.
		if cmd == "total" && errors.Is(err, faults.ErrOverflow) {
			env := make(map[string]*big.Rat, len(params))
			for name, v := range params {
				env[name] = new(big.Rat).SetInt64(v)
			}
			r, perr := u.Count().EvalRat(env)
			if perr != nil {
				return err
			}
			fmt.Println(new(big.Int).Quo(r.Num(), r.Denom()).String())
			return nil
		}
		return err
	}
	switch cmd {
	case "total":
		fmt.Println(b.Total())
	case "rank":
		if len(rest) != n.Depth() {
			return fmt.Errorf("rank wants %d indices", n.Depth())
		}
		idx := make([]int64, n.Depth())
		for q, s := range rest {
			if idx[q], err = strconv.ParseInt(s, 10, 64); err != nil {
				return err
			}
		}
		if !b.Instance().Contains(idx) {
			return fmt.Errorf("%v is not in the iteration domain", idx)
		}
		fmt.Println(b.Rank(idx))
	case "unrank":
		if len(rest) != 1 {
			return fmt.Errorf("unrank wants one pc value")
		}
		pc, err := strconv.ParseInt(rest[0], 10, 64)
		if err != nil {
			return err
		}
		idx := make([]int64, n.Depth())
		if err := b.Unrank(pc, idx); err != nil {
			return err
		}
		out := make([]string, len(idx))
		for q, v := range idx {
			out[q] = fmt.Sprintf("%s=%d", n.Loops[q].Index, v)
		}
		fmt.Println(strings.Join(out, " "))
	case "list":
		idx := make([]int64, n.Depth())
		var pc int64
		b.Instance().Enumerate(func(truth []int64) bool {
			pc++
			copy(idx, truth)
			fmt.Printf("%6d: %v\n", pc, idx)
			return true
		})
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

// runCollapsed executes the collapsed nest on the parallel runtime,
// with -deadline wired through context.WithTimeout into
// omp.CollapsedForCtx. Expiry is reported as the typed ErrCanceled
// class, distinguishing a budget stop from a wrong-answer failure.
func runCollapsed(n *nest.Nest, params paramFlags, deadline time.Duration, threads int, spec string) error {
	sched, err := omp.ParseSchedule(spec)
	if err != nil {
		return fmt.Errorf("-sched: %w", err)
	}
	res, err := build(n)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	if sched.Kind == omp.ScheduleAuto {
		return runTuned(ctx, res, params, deadline, threads)
	}
	perThread := make([]int64, threads)
	start := time.Now()
	err = omp.CollapsedForCtx(ctx, res, params, threads, sched,
		func(tid int, idx []int64) { perThread[tid]++ })
	elapsed := time.Since(start)
	if err != nil {
		if errors.Is(err, faults.ErrCanceled) {
			return fmt.Errorf("deadline %s expired after %s: team stopped cooperatively at a chunk boundary (typed faults.ErrCanceled): %w",
				deadline, elapsed.Round(time.Millisecond), err)
		}
		return err
	}
	var total int64
	for _, c := range perThread {
		total += c
	}
	fmt.Printf("ran %d iterations on %d threads in %s\n", total, threads, elapsed.Round(time.Microsecond))
	return nil
}

// runTuned is the -sched auto form of the run command: the autotuner
// plans (schedule, chunk, workers) by simulation against the measured
// cost model and the report prints the chosen triple with its
// predicted-vs-actual makespan.
func runTuned(ctx context.Context, res *core.Result, params paramFlags, deadline time.Duration, threads int) error {
	tuner := autotune.New(autotune.Options{MaxWorkers: threads})
	run, err := tuner.CollapsedFor(ctx, res, params, func(tid int, idx []int64) {})
	if err != nil {
		if errors.Is(err, faults.ErrCanceled) {
			return fmt.Errorf("deadline %s expired: team stopped cooperatively at a chunk boundary (typed faults.ErrCanceled): %w",
				deadline, err)
		}
		return err
	}
	d := run.Plan.Decision
	fmt.Printf("ran %d iterations tuned (schedule %s) in %s\n",
		run.Stats.Total, d, run.Actual.Round(time.Microsecond))
	fmt.Printf("autotune: predicted %.3fms, actual %.3fms, plan cached %v\n",
		d.PredictedSec*1e3, run.Actual.Seconds()*1e3, run.Cached)
	return nil
}
