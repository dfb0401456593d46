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
// With -aggregate the command runs the -algos × -workloads × -sizes ×
// -seeds grid through the sweep fleet and prints the per-(algorithm,
// workload, n) statistics over seeds — the same table shape the
// server's /v1/sweeps/{id}/aggregate endpoint serves:
//
//	adnet-bench -aggregate -algos graph-to-star,flood \
//	            -workloads line,ring -sizes 256,1024 -seeds 1,2,3,4,5
//	adnet-bench -aggregate -json ...   # groups as a JSON array
//	adnet-bench -aggregate -csv ...    # one CSV row per group
package main

import (
	"encoding/json"
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
	aggregate := flag.Bool("aggregate", false, "run the grid through the sweep path and print per-(algorithm, workload, n) aggregates over -seeds")
	algosFlag := flag.String("algos", "graph-to-star", "aggregate mode: comma-separated algorithms")
	workloadsFlag := flag.String("workloads", "line,ring", "aggregate mode: comma-separated workloads")
	seedsFlag := flag.String("seeds", "1,2,3,4,5", "aggregate mode: comma-separated workload seeds")
	csvOut := flag.Bool("csv", false, "aggregate mode: emit CSV (one row per group) instead of a table")
	jsonOut := flag.Bool("json", false, "aggregate mode: emit the groups as a JSON array instead of a table")
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
	if *csvOut && (!*aggregate || *jsonOut) {
		fatal(fmt.Errorf("-csv requires -aggregate and excludes -json"))
	}
	if *jsonOut && !*aggregate {
		fatal(fmt.Errorf("-json requires -aggregate; host-cost measurements are `go run ./benchmark`"))
	}
	if *aggregate {
		seeds, err := expt.ParseSeeds(*seedsFlag)
		if err != nil {
			fatal(err)
		}
		if err := runAggregate(splitList(*algosFlag), splitList(*workloadsFlag), sizes, seeds, *jsonOut, *csvOut); err != nil {
			fatal(err)
		}
		return
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

// runAggregate executes the grid on the sweep fleet and prints the
// per-(algorithm, workload, n) statistics over seeds — the paper's
// table shape, computed exactly like the server's aggregate endpoint.
// With -json the groups are emitted as the same JSON array the
// /v1/sweeps/{id}/aggregate endpoint nests under "groups"; with -csv
// as one CSV row per group.
func runAggregate(algos, workloads []string, sizes []int, seeds []int64, asJSON, asCSV bool) error {
	if len(sizes) == 0 {
		sizes = []int{256, 1024}
	}
	groups, err := expt.AggregateSweep(expt.SweepSpec{
		Algorithms: algos,
		Workloads:  workloads,
		Sizes:      sizes,
		Seeds:      seeds,
	})
	if err != nil {
		return err
	}
	switch {
	case asJSON:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(groups)
	case asCSV:
		return expt.AggregateCSV(os.Stdout, groups)
	}
	fmt.Println(expt.AggregateTable(groups).String())
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adnet-bench:", err)
	os.Exit(1)
}
