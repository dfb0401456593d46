// Command adnet-bench regenerates the paper's evaluation: every
// experiment of the DESIGN.md index (E1–E13) plus the §1.3 tradeoff
// table, printed as aligned text tables. It reports simulated cost
// (rounds, activations, degree); host cost — wall clock, allocations,
// RSS — is measured by `go run ./benchmark`.
//
// Usage:
//
//	adnet-bench                 # every experiment at default sizes
//	adnet-bench -only E3,E9     # a subset
//	adnet-bench -sizes 64,256   # override the size sweep
//	adnet-bench -tradeoff 512   # the headline comparison at one size
//
// Per-(algorithm, workload, n) aggregates over seeds are `adnet
// -aggregate`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"adnet/internal/expt"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment IDs (default: all)")
	sizesFlag := flag.String("sizes", "", "comma-separated n values (default: per-experiment)")
	tradeoff := flag.Int("tradeoff", 0, "also print the tradeoff table at this n")
	flag.Parse()

	var sizes []int
	if *sizesFlag != "" {
		for _, s := range strings.Split(*sizesFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fatal(fmt.Errorf("bad size %q", s))
			}
			sizes = append(sizes, v)
		}
	}
	ids := expt.ExperimentIDs()
	if *only != "" {
		ids = strings.Split(*only, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		tab, err := expt.Run(id, sizes)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		fmt.Println(tab.String())
	}
	if *tradeoff > 0 {
		tab, err := expt.TradeoffTable(*tradeoff)
		if err != nil {
			fatal(err)
		}
		fmt.Println(tab.String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adnet-bench:", err)
	os.Exit(1)
}
