// Command adnet runs one reconfiguration algorithm on one generated
// initial network and prints the paper's cost measures.
//
// Usage:
//
//	adnet -algo graph-to-star -graph line -n 1024
//	adnet -algo graph-to-wreath -graph bounded-degree -n 256 -seed 7 -verify
//	adnet -algo centralized-euler -graph random -n 4096
//
// With -aggregate the run repeats across -seeds and prints the
// per-(algorithm, workload, n) statistics over those seeds — one row
// of the same table the server's aggregate endpoint serves:
//
//	adnet -algo graph-to-star -graph random -n 512 -aggregate -seeds 1,2,3,4,5
//
// With -csv the aggregate row is emitted as CSV (header + one row per
// (algorithm, workload, n) group) for plotting pipelines:
//
//	adnet -algo graph-to-star -graph random -n 512 -aggregate -csv
//
// With -robustness the grid runs once undisturbed and once per
// -dynamics class, and the success/overhead matrix is printed (or
// exported with -csv / -json); -gate compares the matrix against a
// committed snapshot and fails on regression:
//
//	adnet -robustness -graph line -n 32 -seeds 1,2,3
//	adnet -robustness -dynamics edge-churn,crash -json > ROBUSTNESS_LATEST.json
//	adnet -robustness -gate ROBUSTNESS_LATEST.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"adnet/internal/dynamics"
	"adnet/internal/expt"
)

func main() {
	algo := flag.String("algo", expt.AlgoStar,
		"algorithm: "+strings.Join(expt.Algorithms(), ", "))
	workload := flag.String("graph", "line",
		"initial network: "+strings.Join(expt.Workloads(), ", "))
	n := flag.Int("n", 256, "number of nodes")
	seed := flag.Int64("seed", 1, "workload seed")
	verify := flag.Bool("verify", false, "fail unless a unique correct leader was elected")
	aggregate := flag.Bool("aggregate", false, "repeat across -seeds and print mean/min/max/stddev statistics")
	seedsFlag := flag.String("seeds", "1,2,3,4,5", "aggregate mode: comma-separated workload seeds")
	csvOut := flag.Bool("csv", false, "aggregate/robustness mode: emit CSV instead of a table")
	robustness := flag.Bool("robustness", false, "run the robustness matrix: baseline plus each -dynamics class over -algos x -graph x -n x -seeds")
	algosFlag := flag.String("algos", "", "robustness mode: comma-separated algorithms (default: every distributed algorithm)")
	dynFlag := flag.String("dynamics", strings.Join(dynamics.Classes(), ","), "robustness mode: comma-separated dynamics classes")
	jsonOut := flag.Bool("json", false, "robustness mode: emit the snapshot JSON (the ROBUSTNESS_LATEST.json shape)")
	gate := flag.String("gate", "", "robustness mode: fail unless every row of the snapshot FILE still succeeds as often")
	flag.Parse()

	if *csvOut && !*aggregate && !*robustness {
		fatal(fmt.Errorf("-csv requires -aggregate or -robustness"))
	}
	if *robustness {
		if err := runRobustness(*algosFlag, *workload, *n, *seedsFlag, *dynFlag, *csvOut, *jsonOut, *gate); err != nil {
			fatal(err)
		}
		return
	}
	if *aggregate {
		if err := runAggregate(*algo, *workload, *n, *seedsFlag, *verify, *csvOut); err != nil {
			fatal(err)
		}
		return
	}

	out, err := expt.Execute(expt.Request{
		Algorithm: *algo,
		Workload:  *workload,
		N:         *n,
		Seed:      *seed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("algorithm           %s\n", *algo)
	fmt.Printf("initial network     %s n=%d (seed %d)\n", *workload, *n, *seed)
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

// runAggregate executes the single-(algorithm, workload, n) grid over
// every seed through the sweep fleet and prints the aggregate row —
// as an aligned table, or as CSV with asCSV.
func runAggregate(algo, workload string, n int, seedList string, verify, asCSV bool) error {
	seeds, err := expt.ParseSeeds(seedList)
	if err != nil {
		return err
	}
	groups, err := expt.AggregateSweep(expt.SweepSpec{
		Algorithms: []string{algo},
		Workloads:  []string{workload},
		Sizes:      []int{n},
		Seeds:      seeds,
	})
	if err != nil {
		return err
	}
	if asCSV {
		if err := expt.AggregateCSV(os.Stdout, groups); err != nil {
			return err
		}
	} else {
		fmt.Println(expt.AggregateTable(groups).String())
	}
	if verify {
		for _, g := range groups {
			if g.Errors > 0 || g.LeadersOK != g.Seeds {
				return fmt.Errorf("verification failed: %d/%d leaders, %d errors", g.LeadersOK, g.Seeds, g.Errors)
			}
		}
	}
	return nil
}

// runRobustness executes the robustness matrix over the requested
// algorithms, dynamics classes and seeds, renders it (table, CSV or
// snapshot JSON), and optionally gates it against a committed
// snapshot.
func runRobustness(algoList, workload string, n int, seedList, dynList string, asCSV, asJSON bool, gatePath string) error {
	seeds, err := expt.ParseSeeds(seedList)
	if err != nil {
		return err
	}
	algos := splitList(algoList)
	if len(algos) == 0 {
		for _, a := range expt.Algorithms() {
			if expt.Simulated(a) {
				algos = append(algos, a)
			}
		}
	}
	var dyns []dynamics.Spec
	for _, class := range splitList(dynList) {
		dyns = append(dyns, dynamics.Spec{Class: class})
	}
	rows, err := expt.RobustnessMatrix(expt.RobustnessSpec{
		Grid: expt.SweepSpec{
			Algorithms: algos,
			Workloads:  []string{workload},
			Sizes:      []int{n},
			Seeds:      seeds,
		},
		Dynamics: dyns,
	})
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
