// Command rankq answers ranking/unranking queries about affine loop
// nests: the total iteration count, the rank of a given iteration tuple,
// the tuple at a given rank, and the full enumeration.
//
// The nest is given with -nest as semicolon-separated loops
// "index=lower:upper" (upper exclusive), parameters bound with repeated
// -p name=value flags:
//
//	rankq -nest 'i=0:N-1; j=i+1:N' -p N=10 total
//	rankq -nest 'i=0:N-1; j=i+1:N' -p N=10 rank 3 5
//	rankq -nest 'i=0:N-1; j=i+1:N' -p N=10 unrank 29
//	rankq -nest 'i=0:N-1; j=i+1:N' -p N=4 list
//
// The ranking polynomial, the symbolic roots and parallel runs of a
// nest are collapsetool's: -report prints the analysis and -stats runs
// the collapsed nest (with -sched and -deadline).
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/big"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/nest"
	"repro/internal/unrank"
)

// collapseCache memoizes the symbolic build across the queries of one
// invocation: structurally identical nests compile once. The cache key
// includes the recovery mode, so -mode variants of the same nest
// coexist.
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
	mode := flag.String("mode", "closed-form", "index recovery mode: closed-form (radical roots), search (exact binary search), or table (precomputed breakpoint tables; like search, accepts degree > 4)")
	flag.Parse()

	var err error
	if recoveryMode, err = unrank.ParseMode(*mode); err != nil {
		fmt.Fprintln(os.Stderr, "rankq:", err)
		os.Exit(1)
	}
	if err := run(*nestSpec, params, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "rankq:", err)
		os.Exit(1)
	}
}

func parseNest(spec string) (*nest.Nest, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("missing -nest")
	}
	return nest.ParseSpec(spec)
}

func run(nestSpec string, params paramFlags, args []string) error {
	n, err := parseNest(nestSpec)
	if err != nil {
		return err
	}
	if len(args) == 0 {
		return fmt.Errorf("missing command: total|rank|unrank|list")
	}
	cmd, rest := args[0], args[1:]

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
