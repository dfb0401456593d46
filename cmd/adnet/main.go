// Command adnet runs one reconfiguration algorithm on one generated
// initial network and prints the paper's cost measures.
//
// Usage:
//
//	adnet -algo graph-to-star -graph line -n 1024
//	adnet -algo graph-to-wreath -graph bounded-degree -n 256 -seed 7
//	adnet -algo centralized-euler -graph random -n 4096
//
// A run that fails its verdict (DESIGN.md § "The verdict") exits 1.
//
// With -aggregate the runs repeat across -seeds over the -algos (default
// -algo) × -graph × -n grid, each a comma list, and the
// per-(algorithm, workload, n) statistics over those seeds are printed
// — the table the server's aggregate endpoint serves; -csv emits one CSV
// row per group, -json the groups array that endpoint nests under
// "groups"; -verify fails if any run failed its verdict (an error cell):
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
//
// With -experiments it prints the paper's evaluation instead, the
// tables E1–E13 of DESIGN.md § "Experiment index" (a comma list of IDs,
// or all) at the -n sizes if -n is given and at each table's own
// otherwise; -tradeoff N adds the §1.3 time/edge-complexity tradeoff
// table T1 at n = N:
//
//	adnet -experiments all -tradeoff 512
//	adnet -experiments E3,E9 -n 64,256
//
// A flag its mode does not read is an error. Host cost (wall clock,
// allocations, RSS) is measured by `go run ./benchmark`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
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
	nFlag := flag.String("n", "256", "number of nodes (a comma list in -aggregate/-robustness/-experiments mode)")
	seed := flag.Int64("seed", 1, "workload seed")
	verify := flag.Bool("verify", false, "aggregate mode: fail if any run is an error (a failed verdict included)")
	aggregate := flag.Bool("aggregate", false, "run the -algos x -graph x -n x -seeds grid and print mean/min/max/stddev statistics")
	seedsFlag := flag.String("seeds", "1,2,3,4,5", "aggregate/robustness mode: comma-separated workload seeds")
	csvOut := flag.Bool("csv", false, "aggregate/robustness mode: emit CSV instead of a table")
	robustness := flag.Bool("robustness", false, "run the robustness matrix: baseline plus each -dynamics class over -algos x -graph x -n x -seeds")
	algosFlag := flag.String("algos", "", "aggregate/robustness mode: comma-separated algorithms (default: -algo; robustness: every distributed algorithm)")
	dynFlag := flag.String("dynamics", strings.Join(dynamics.Classes(), ","), "robustness mode: comma-separated dynamics classes")
	jsonOut := flag.Bool("json", false, "aggregate/robustness mode: emit JSON (the aggregate groups array; the ROBUSTNESS_LATEST.json shape)")
	gate := flag.String("gate", "", "robustness mode: fail unless every row of the snapshot FILE still succeeds as often")
	experiments := flag.String("experiments", "", "print the paper's tables: comma-separated IDs (E1..E13) or all, at the -n sizes if given, else each table's own")
	tradeoff := flag.Int("tradeoff", 0, "print the time/edge-complexity tradeoff table T1 at this n")
	flag.Parse()

	mode := "single-run"
	switch {
	case *aggregate:
		mode = "aggregate"
	case *robustness:
		mode = "robustness"
	case *experiments != "" || *tradeoff != 0:
		mode = "experiments"
	}
	sizes, err := parseInts[int]("size", *nFlag)
	nSet := false
	flag.Visit(func(f *flag.Flag) {
		nSet = nSet || f.Name == "n"
		if !slices.Contains(modeFlags[mode], f.Name) && err == nil {
			err = fmt.Errorf("-%s does not apply in %s mode", f.Name, mode)
		}
	})
	if err != nil {
		fatal(err)
	}

	switch mode {
	case "experiments":
		if !nSet {
			sizes = nil
		}
		err = runExperiments(*experiments, sizes, *tradeoff)
	case "aggregate", "robustness":
		algos := splitList(*algosFlag)
		if len(algos) == 0 && mode == "aggregate" {
			algos = []string{*algo}
		}
		var grid expt.SweepSpec
		if grid, err = parseGrid(algos, *workload, sizes, *seedsFlag); err != nil {
			break
		}
		if mode == "robustness" {
			err = runRobustness(grid, *dynFlag, *csvOut, *jsonOut, *gate)
		} else {
			err = runAggregate(grid, *verify, *csvOut, *jsonOut)
		}
	default:
		if len(sizes) != 1 || strings.Contains(*workload, ",") {
			fatal(fmt.Errorf("a single run takes one -graph and one -n (lists need -aggregate): -graph %q -n %q", *workload, *nFlag))
		}
		err = runOne(expt.Request{Algorithm: *algo, Workload: *workload, N: sizes[0], Seed: *seed})
	}
	if err != nil {
		fatal(err)
	}
}

// runOne executes one run and prints its cost measures.
func runOne(req expt.Request) error {
	out, err := expt.Execute(req)
	if err != nil {
		return err
	}
	fmt.Printf("algorithm           %s\n", req.Algorithm)
	fmt.Printf("initial network     %s n=%d (seed %d)\n", req.Workload, req.N, req.Seed)
	fmt.Printf("rounds              %d\n", out.Rounds)
	fmt.Printf("last edge activity  round %d\n", out.LastActivity)
	fmt.Printf("total activations   %d\n", out.TotalActivations)
	fmt.Printf("max activated edges %d\n", out.MaxActivatedEdges)
	fmt.Printf("max activated deg   %d\n", out.MaxActivatedDegree)
	fmt.Printf("total messages      %d\n", out.TotalMessages)
	fmt.Printf("final diameter      %d\n", out.FinalDiameter)
	fmt.Printf("final leader depth  %d\n", out.FinalDepth)
	fmt.Printf("leader elected      %v\n", out.LeaderOK)
	return nil
}

// modeFlags lists the flags each mode reads; main fails on any other
// set flag instead of dropping it. -aggregate, -robustness and
// -experiments or -tradeoff select the mode, and exclude each other.
var modeFlags = map[string][]string{
	"single-run":  {"n", "algo", "graph", "seed"},
	"aggregate":   {"n", "aggregate", "algo", "algos", "graph", "seeds", "verify", "csv", "json"},
	"robustness":  {"n", "robustness", "algos", "graph", "seeds", "dynamics", "gate", "csv", "json"},
	"experiments": {"n", "experiments", "tradeoff"},
}

// runExperiments prints the named tables of the experiment index
// ("all" is E1–E13) at sizes, nil keeping each table's own, and then,
// unless tradeoff is 0, the tradeoff table T1 at n = tradeoff.
func runExperiments(ids string, sizes []int, tradeoff int) error {
	list := splitList(ids)
	if ids == "all" {
		list = expt.ExperimentIDs()
	}
	for _, id := range list {
		tab, err := expt.Run(id, sizes)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(tab.String())
	}
	if tradeoff == 0 {
		return nil
	}
	tab, err := expt.TradeoffTable(tradeoff)
	if err == nil {
		fmt.Println(tab.String())
	}
	return err
}

// parseInts reads a comma list of integers, the -n sizes or the -seeds;
// what names one in the error.
func parseInts[T int | int64](what, list string) ([]T, error) {
	var out []T
	for _, s := range splitList(list) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad %s %q", what, s)
		}
		out = append(out, T(v))
	}
	return out, nil
}

// parseGrid reads the -algos x -graph x -n x -seeds grid. An empty
// algorithm list is every distributed algorithm.
func parseGrid(algos []string, workloads string, sizes []int, seedList string) (expt.SweepSpec, error) {
	grid := expt.SweepSpec{Algorithms: algos, Workloads: splitList(workloads), Sizes: sizes}
	if len(algos) == 0 {
		for _, a := range expt.Algorithms() {
			if expt.Simulated(a) {
				grid.Algorithms = append(grid.Algorithms, a)
			}
		}
	}
	var err error
	grid.Seeds, err = parseInts[int64]("seed", seedList)
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
	// An undisturbed run that fails its verdict is an error cell, so the
	// error counts are the whole check.
	for _, g := range groups {
		if g.Errors > 0 {
			return fmt.Errorf("verification failed: %s on %s n=%d: %d of %d runs are errors",
				g.Algorithm, g.Workload, g.N, g.Errors, g.Errors+g.Seeds)
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
