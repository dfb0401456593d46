// Command adnet runs one reconfiguration algorithm on one generated
// initial network and prints the paper's cost measures.
//
// Usage:
//
//	adnet -algo graph-to-star -graph line -n 1024
//	adnet -algo graph-to-wreath -graph bounded-degree -n 256 -seed 7 -verify
//	adnet -algo centralized-euler -graph random -n 4096
//
// With -aggregate the runs repeat across -seeds over the -algos (default
// -algo) × -graph × -n grid, each a comma list, and the
// per-(algorithm, workload, n) statistics over those seeds are printed
// — the table the server's aggregate endpoint serves; -csv emits one CSV
// row per group, -json the groups array that endpoint nests under
// "groups":
//
//	adnet -aggregate -algos graph-to-star,flood -graph line,ring -n 256,1024 -seeds 1,2,3,4,5
//	adnet -aggregate -graph random -n 512 -csv
//
// With -robustness the same grid (-algos defaulting to every
// distributed algorithm) runs once undisturbed and once per -dynamics
// class, and the success/overhead matrix is printed (or exported with
// -csv / -json); -gate compares the matrix against a committed snapshot
// and fails on regression:
//
//	adnet -robustness -graph line -n 32 -seeds 1,2,3
//	adnet -robustness -dynamics edge-churn,crash -json > ROBUSTNESS_LATEST.json
//	adnet -robustness -gate ROBUSTNESS_LATEST.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"adnet/internal/dynamics"
	"adnet/internal/expt"
)

func main() {
	algo := flag.String("algo", expt.AlgoStar,
		"algorithm: "+strings.Join(expt.Algorithms(), ", "))
	workload := flag.String("graph", "line",
		"initial network (a comma list in -aggregate/-robustness mode): "+strings.Join(expt.Workloads(), ", "))
	nFlag := flag.String("n", "256", "number of nodes (a comma list in -aggregate/-robustness mode)")
	seed := flag.Int64("seed", 1, "workload seed")
	verify := flag.Bool("verify", false, "fail unless a unique correct leader was elected")
	aggregate := flag.Bool("aggregate", false, "run the -algos x -graph x -n x -seeds grid and print mean/min/max/stddev statistics")
	seedsFlag := flag.String("seeds", "1,2,3,4,5", "aggregate/robustness mode: comma-separated workload seeds")
	csvOut := flag.Bool("csv", false, "aggregate/robustness mode: emit CSV instead of a table")
	robustness := flag.Bool("robustness", false, "run the robustness matrix: baseline plus each -dynamics class over -algos x -graph x -n x -seeds")
	algosFlag := flag.String("algos", "", "aggregate/robustness mode: comma-separated algorithms (default: -algo; robustness: every distributed algorithm)")
	dynFlag := flag.String("dynamics", strings.Join(dynamics.Classes(), ","), "robustness mode: comma-separated dynamics classes")
	jsonOut := flag.Bool("json", false, "aggregate/robustness mode: emit JSON (the aggregate groups array; the ROBUSTNESS_LATEST.json shape)")
	gate := flag.String("gate", "", "robustness mode: fail unless every row of the snapshot FILE still succeeds as often")
	flag.Parse()

	if *aggregate || *robustness {
		algos := splitList(*algosFlag)
		if len(algos) == 0 && *aggregate {
			algos = []string{*algo}
		}
		grid, err := parseGrid(algos, *workload, *nFlag, *seedsFlag)
		if err != nil {
			fatal(err)
		}
		if *robustness {
			err = runRobustness(grid, *dynFlag, *csvOut, *jsonOut, *gate)
		} else {
			err = runAggregate(grid, *verify, *csvOut, *jsonOut)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	if *csvOut || *jsonOut {
		fatal(fmt.Errorf("-csv and -json require -aggregate or -robustness"))
	}
	n, err := strconv.Atoi(*nFlag)
	if err != nil || strings.Contains(*workload, ",") {
		fatal(fmt.Errorf("a single run takes one -graph and one -n (lists need -aggregate): -graph %q -n %q", *workload, *nFlag))
	}

	out, err := expt.Execute(expt.Request{
		Algorithm: *algo,
		Workload:  *workload,
		N:         n,
		Seed:      *seed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("algorithm           %s\n", *algo)
	fmt.Printf("initial network     %s n=%d (seed %d)\n", *workload, n, *seed)
	fmt.Printf("rounds              %d\n", out.Rounds)
	fmt.Printf("last edge activity  round %d\n", out.LastActivity)
	fmt.Printf("total activations   %d\n", out.TotalActivations)
	fmt.Printf("max activated edges %d\n", out.MaxActivatedEdges)
	fmt.Printf("max activated deg   %d\n", out.MaxActivatedDegree)
	fmt.Printf("total messages      %d\n", out.TotalMessages)
	fmt.Printf("final diameter      %d\n", out.FinalDiameter)
	fmt.Printf("final leader depth  %d\n", out.FinalDepth)
	fmt.Printf("leader elected      %v\n", out.LeaderOK)
	if *verify && !out.LeaderOK {
		fatal(fmt.Errorf("verification failed: no unique correct leader"))
	}
}

// parseGrid reads the -algos x -graph x -n x -seeds grid. An empty
// algorithm list is every distributed algorithm.
func parseGrid(algos []string, workloads, sizes, seedList string) (expt.SweepSpec, error) {
	grid := expt.SweepSpec{Algorithms: algos, Workloads: splitList(workloads)}
	if len(algos) == 0 {
		for _, a := range expt.Algorithms() {
			if expt.Simulated(a) {
				grid.Algorithms = append(grid.Algorithms, a)
			}
		}
	}
	for _, s := range splitList(sizes) {
		n, err := strconv.Atoi(s)
		if err != nil {
			return grid, fmt.Errorf("bad size %q", s)
		}
		grid.Sizes = append(grid.Sizes, n)
	}
	var err error
	grid.Seeds, err = expt.ParseSeeds(seedList)
	return grid, err
}

// runAggregate executes the grid through the sweep fleet and prints the
// per-(algorithm, workload, n) statistics over seeds: an aligned table,
// CSV, or the JSON groups array.
func runAggregate(grid expt.SweepSpec, verify, asCSV, asJSON bool) error {
	groups, err := expt.AggregateSweep(grid)
	if err != nil {
		return err
	}
	switch {
	case asJSON:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(groups)
	case asCSV:
		err = expt.AggregateCSV(os.Stdout, groups)
	default:
		fmt.Println(expt.AggregateTable(groups).String())
	}
	if err != nil || !verify {
		return err
	}
	for _, g := range groups {
		if g.Errors > 0 || g.LeadersOK != g.Seeds {
			return fmt.Errorf("verification failed: %d/%d leaders, %d errors", g.LeadersOK, g.Seeds, g.Errors)
		}
	}
	return nil
}

// runRobustness executes the robustness matrix over the grid and the
// requested dynamics classes, renders it (table, CSV or snapshot JSON),
// and optionally gates it against a committed snapshot.
func runRobustness(grid expt.SweepSpec, dynList string, asCSV, asJSON bool, gatePath string) error {
	var dyns []dynamics.Spec
	for _, class := range splitList(dynList) {
		dyns = append(dyns, dynamics.Spec{Class: class})
	}
	rows, err := expt.RobustnessMatrix(expt.RobustnessSpec{Grid: grid, Dynamics: dyns})
	if err != nil {
		return err
	}
	switch {
	case asJSON:
		b, err := expt.RobustnessJSON(rows)
		if err != nil {
			return err
		}
		os.Stdout.Write(b)
	case asCSV:
		if err := expt.RobustnessCSV(os.Stdout, rows); err != nil {
			return err
		}
	default:
		fmt.Println(expt.RobustnessTable(rows).String())
	}
	if gatePath != "" {
		data, err := os.ReadFile(gatePath)
		if err != nil {
			return err
		}
		baseline, err := expt.ParseRobustness(data)
		if err != nil {
			return err
		}
		if err := expt.CompareRobustness(rows, baseline); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "adnet: robustness gate passed against %s (%d rows)\n", gatePath, len(baseline))
	}
	return nil
}

// splitList splits a comma-separated flag value, dropping empties.
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
	fmt.Fprintln(os.Stderr, "adnet:", err)
	os.Exit(1)
}
