// Command adnet-bench regenerates the paper's evaluation: every
// experiment of the DESIGN.md index (E1–E13) plus the §1.3 tradeoff
// table, printed as aligned text tables.
//
// Usage:
//
//	adnet-bench                 # every experiment at default sizes
//	adnet-bench -only E3,E9     # a subset
//	adnet-bench -sizes 64,256   # override the size sweep
//	adnet-bench -tradeoff 512   # the headline comparison at one size
//
// With -json the command switches to the machine-readable performance
// mode used to track the perf trajectory across PRs (BENCH_LATEST.json).
// The grid is enumerated through the same sweep path the service uses
// (expt.SweepSpec) and executed on one reusable engine:
//
//	adnet-bench -json                          # default perf suite
//	adnet-bench -json -algos graph-to-star \
//	            -workloads line,ring -sizes 1024,4096 > BENCH_LATEST.json
//
// With -compare the command re-measures the grid recorded in a
// committed BENCH_*.json and diffs the two, failing when
// allocs/round (deterministic) or, if enabled, ns/round regress
// beyond the thresholds. This is the CI perf gate:
//
//	adnet-bench -compare BENCH_LATEST.json -alloc-threshold 0.25
//	adnet-bench -compare BENCH_LATEST.json -sizes 256 -workloads line
//
// With -fanout the command measures the broadcast hub's encode-once
// fan-out path instead of engine runs: frames published to one hub,
// drained by 1..N concurrent subscribers, reporting encodes and bytes
// fanned out per round. -fanout -compare re-measures the fan-out
// records of a committed baseline and fails if the encode-once
// invariant (encodes/round == 1 at any subscriber count) breaks:
//
//	adnet-bench -fanout -fanout-subs 1,64,1024 -json
//	adnet-bench -fanout -compare BENCH_LATEST.json
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
//
// Each record reports the workload, rounds executed, wall-clock
// ns/round and heap allocations (count and bytes) per round.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"adnet/internal/expt"
	"adnet/internal/obs"
	"adnet/internal/service"
	"adnet/internal/sim"
)

// instrumentFold is the same per-run metrics fold the service performs
// (runs counter, rounds and ns/round histograms), attached to every
// measured run so the -compare perf gate times and alloc-counts the
// *instrumented* engine path. The registry is never scraped here; the
// point is paying the observer's true cost inside the measurement.
// measure chains it with its own RunSummary capture, since an engine
// run has exactly one observer.
var instrumentFold = func() func(sim.RunSummary) {
	reg := obs.NewRegistry()
	runs := reg.Counter("adnet_engine_runs_total",
		"Simulations executed to completion or failure.")
	rounds := reg.Histogram("adnet_engine_rounds_per_run",
		"Completed rounds per simulation run.", obs.ExpBuckets(1, 2, 16))
	roundSecs := reg.Histogram("adnet_engine_round_duration_seconds",
		"Mean wall-clock time per round, folded in once per run.", obs.ExpBuckets(1e-7, 4, 12))
	return func(s sim.RunSummary) {
		runs.Inc()
		rounds.Observe(float64(s.Rounds))
		if s.Rounds > 0 {
			roundSecs.Observe(s.Duration.Seconds() / float64(s.Rounds))
		}
	}
}()

func main() {
	only := flag.String("only", "", "comma-separated experiment IDs (default: all)")
	sizesFlag := flag.String("sizes", "", "comma-separated n values (default: per-experiment)")
	tradeoff := flag.Int("tradeoff", 0, "also print the tradeoff table at this n")
	jsonOut := flag.Bool("json", false, "emit machine-readable perf records (JSON) instead of tables")
	algosFlag := flag.String("algos", "graph-to-star", "perf mode: comma-separated algorithms")
	workloadsFlag := flag.String("workloads", "line,ring", "perf mode: comma-separated workloads")
	seed := flag.Int64("seed", 1, "perf mode: workload seed")
	aggregate := flag.Bool("aggregate", false, "run the grid through the sweep path and print per-(algorithm, workload, n) aggregates over -seeds")
	seedsFlag := flag.String("seeds", "1,2,3,4,5", "aggregate mode: comma-separated workload seeds")
	csvOut := flag.Bool("csv", false, "aggregate mode: emit CSV (one row per group) instead of a table")
	fanout := flag.Bool("fanout", false, "measure the broadcast hub's fan-out path instead of engine runs (also selects fan-out records under -compare)")
	fanoutSubs := flag.String("fanout-subs", "1,64,1024", "fanout mode: comma-separated subscriber counts")
	fanoutRounds := flag.Int("fanout-rounds", 4096, "fanout mode: frames published per measured pass")
	compare := flag.String("compare", "", "re-measure the grid of this BENCH_*.json and diff (CI perf gate)")
	allocTh := flag.Float64("alloc-threshold", 0.25, "compare: max tolerated allocs/round regression (fraction)")
	nsTh := flag.Float64("ns-threshold", 0, "compare: max tolerated ns/round regression (fraction; 0 = report only)")
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
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *compare != "" {
		err := runCompare(compareFilter{
			path:      *compare,
			algos:     filterSet(explicit["algos"], splitList(*algosFlag)),
			workloads: filterSet(explicit["workloads"], splitList(*workloadsFlag)),
			sizes:     sizes,
			allocTh:   *allocTh,
			nsTh:      *nsTh,
			fanout:    *fanout,
		})
		if err != nil {
			fatal(err)
		}
		return
	}
	if *fanout {
		var subs []int
		for _, s := range strings.Split(*fanoutSubs, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 1 {
				fatal(fmt.Errorf("bad subscriber count %q", s))
			}
			subs = append(subs, v)
		}
		if err := runFanout(subs, *fanoutRounds, *jsonOut); err != nil {
			fatal(err)
		}
		return
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
	if *jsonOut {
		if err := runPerf(splitList(*algosFlag), splitList(*workloadsFlag), sizes, *seed); err != nil {
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

// perfRecord is one machine-readable measurement. The schema is append
// only: future PRs add fields but never rename these, so BENCH_*.json
// files stay comparable across the repo's history.
//
// The *_per_round figures divide whole-run cost — including the run's
// one-time setup (workload generation, machine construction, history
// reset) — by the number of rounds. They are trajectory metrics for
// the full engine path, not a pure round-loop microbenchmark; for the
// isolated round loop see BenchmarkRoundLoop in bench_test.go. Since
// PR 3 the measured pass runs on a reused engine (expt.Runner), the
// same path sweeps take.
type perfRecord struct {
	Algorithm      string  `json:"algorithm"`
	Workload       string  `json:"workload"`
	N              int     `json:"n"`
	Seed           int64   `json:"seed"`
	Rounds         int     `json:"rounds"`
	TotalNs        int64   `json:"total_ns"`
	NsPerRound     float64 `json:"ns_per_round"`
	AllocsPerRound float64 `json:"allocs_per_round"`
	BytesPerRound  float64 `json:"bytes_per_round"`
	// Workers and ParallelEfficiency (busy/(workers×wall), 1.0 when
	// sequential) report how the measured run was stepped. Added with
	// the parallel intra-round path; absent in older BENCH_*.json,
	// where they decode as zero and are ignored by -compare.
	Workers            int     `json:"workers"`
	ParallelEfficiency float64 `json:"parallel_efficiency"`
	// Fan-out records (-fanout, Algorithm "broadcast-hub") measure the
	// encode-once streaming hub instead of an engine run: Subscribers
	// concurrent drains over Rounds published frames. EncodesPerRound
	// is the hub's marshal count per published frame — 1.0 when the
	// encode-once invariant holds, regardless of Subscribers —
	// FanoutBytesPerRound the encoded bytes delivered per frame across
	// all subscribers. Zero on engine records; engine fields Workers
	// and ParallelEfficiency are zero on fan-out records.
	Subscribers         int     `json:"subscribers,omitempty"`
	EncodesPerRound     float64 `json:"encodes_per_round,omitempty"`
	FanoutBytesPerRound float64 `json:"fanout_bytes_per_round,omitempty"`
}

// runPerf executes the algorithm × workload × size grid — enumerated
// through the sweep path — once per cell on a single reused engine
// and writes the records as a JSON array to stdout.
func runPerf(algos, workloads []string, sizes []int, seed int64) error {
	if len(sizes) == 0 {
		sizes = []int{256, 1024}
	}
	spec := expt.SweepSpec{
		Algorithms: algos,
		Workloads:  workloads,
		Sizes:      sizes,
		Seeds:      []int64{seed},
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	r := expt.NewRunner()
	defer r.Close()
	var records []perfRecord
	for _, cell := range spec.Cells() {
		rec, err := measure(r, cell)
		if err != nil {
			return fmt.Errorf("%s/%s n=%d: %w", cell.Algorithm, cell.Workload, cell.N, err)
		}
		records = append(records, rec)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}

// measure times one cell on the shared Runner — with the service's
// run-observer instrumentation attached, so the perf gate covers the
// observed path. One untimed warm-up keeps process-level one-time
// costs (lazy init, heap growth, engine buffer growth) out of the
// measured pass; per-run setup is still included, as documented on
// perfRecord.
func measure(r *expt.Runner, cell expt.Cell) (perfRecord, error) {
	req := cell.Request()
	var last sim.RunSummary
	req.SimOpts = append(req.SimOpts, sim.WithRunObserver(func(s sim.RunSummary) {
		instrumentFold(s)
		last = s
	}))
	if _, err := r.Execute(req); err != nil {
		return perfRecord{}, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	out, err := r.Execute(req)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return perfRecord{}, err
	}
	rounds := out.Rounds
	if rounds < 1 {
		rounds = 1
	}
	return perfRecord{
		Algorithm:          cell.Algorithm,
		Workload:           cell.Workload,
		N:                  cell.N,
		Seed:               cell.Seed,
		Rounds:             out.Rounds,
		TotalNs:            elapsed.Nanoseconds(),
		NsPerRound:         float64(elapsed.Nanoseconds()) / float64(rounds),
		AllocsPerRound:     float64(after.Mallocs-before.Mallocs) / float64(rounds),
		BytesPerRound:      float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds),
		Workers:            last.Workers,
		ParallelEfficiency: last.ParallelEfficiency(),
	}, nil
}

// runFanout measures the broadcast hub's fan-out path at each
// subscriber count and emits the records — the encode-once headline
// numbers: encodes/round stays 1.0 while subscribers grow, so the
// per-subscriber cost is a raw byte write, not a marshal.
func runFanout(subs []int, rounds int, asJSON bool) error {
	var records []perfRecord
	for _, s := range subs {
		records = append(records, measureFanout(rounds, s))
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(records)
	}
	fmt.Printf("%-14s %6s %8s | %10s %12s %10s %14s\n",
		"algorithm", "subs", "rounds", "ns/round", "allocs/round", "enc/round", "fanout B/round")
	for _, r := range records {
		fmt.Printf("%-14s %6d %8d | %10.0f %12.1f %10.2f %14.0f\n",
			r.Algorithm, r.Subscribers, r.Rounds,
			r.NsPerRound, r.AllocsPerRound, r.EncodesPerRound, r.FanoutBytesPerRound)
	}
	return nil
}

// measureFanout times one fan-out pass: rounds frames published to a
// hub drained by subs concurrent readers. One untimed warm-up pass
// absorbs lazy-init costs, mirroring measure.
func measureFanout(rounds, subs int) perfRecord {
	service.RunFanoutBench(64, subs)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res := service.RunFanoutBench(rounds, subs)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return perfRecord{
		Algorithm:           "broadcast-hub",
		Workload:            "fanout",
		N:                   rounds,
		Rounds:              rounds,
		TotalNs:             elapsed.Nanoseconds(),
		NsPerRound:          float64(elapsed.Nanoseconds()) / float64(rounds),
		AllocsPerRound:      float64(after.Mallocs-before.Mallocs) / float64(rounds),
		BytesPerRound:       float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds),
		Subscribers:         subs,
		EncodesPerRound:     float64(res.Encodes) / float64(rounds),
		FanoutBytesPerRound: float64(res.FannedBytes) / float64(rounds),
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

// compareFilter scopes a -compare pass: nil/empty filters keep every
// baseline record.
type compareFilter struct {
	path      string
	algos     map[string]bool
	workloads map[string]bool
	sizes     []int
	allocTh   float64
	nsTh      float64
	// fanout selects the broadcast-hub fan-out records instead of the
	// engine records: a plain -compare never re-measures fan-out rows,
	// -fanout -compare re-measures only them.
	fanout bool
}

func (f compareFilter) keep(rec perfRecord) bool {
	if (rec.Subscribers > 0) != f.fanout {
		return false
	}
	if f.algos != nil && !f.algos[rec.Algorithm] {
		return false
	}
	if f.workloads != nil && !f.workloads[rec.Workload] {
		return false
	}
	if len(f.sizes) > 0 {
		found := false
		for _, n := range f.sizes {
			if n == rec.N {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// runCompare re-measures the baseline's grid on the current binary and
// prints per-record deltas. It returns an error (non-zero exit) when
// allocs/round — a deterministic function of the code path — regresses
// beyond allocTh, or ns/round beyond nsTh when nsTh > 0. Fan-out rows
// are gated on encodes/round alone: the hub's allocs/round counts how
// often a subscriber caught the log's head and had to wait (one
// context.AfterFunc per wait), which is scheduling, not code, so it is
// printed and not gated.
func runCompare(f compareFilter) error {
	data, err := os.ReadFile(f.path)
	if err != nil {
		return err
	}
	var baseline []perfRecord
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("%s: %w", f.path, err)
	}
	r := expt.NewRunner()
	defer r.Close()

	fmt.Printf("%-16s %-10s %6s | %12s %12s %8s | %10s %10s %8s\n",
		"algorithm", "workload", "n", "ns/rd(base)", "ns/rd(now)", "Δns",
		"allocs(base)", "allocs(now)", "Δallocs")
	var regressions []string
	kept := 0
	for _, base := range baseline {
		if !f.keep(base) {
			continue
		}
		kept++
		var cur perfRecord
		var id string
		if f.fanout {
			cur = measureFanout(base.Rounds, base.Subscribers)
			id = fmt.Sprintf("%s/%s subs=%d", base.Algorithm, base.Workload, base.Subscribers)
			// The encode-once invariant is the whole point of the hub:
			// any growth in marshals per published frame is a hard
			// regression no matter how cheap each marshal is.
			if cur.EncodesPerRound > base.EncodesPerRound*1.001 {
				regressions = append(regressions,
					fmt.Sprintf("%s: encodes/round %.3f, baseline %.3f — encode-once invariant broken",
						id, cur.EncodesPerRound, base.EncodesPerRound))
			}
		} else {
			var err error
			cur, err = measure(r, expt.Cell{
				Algorithm: base.Algorithm, Workload: base.Workload, N: base.N, Seed: base.Seed,
			})
			if err != nil {
				return fmt.Errorf("%s/%s n=%d: %w", base.Algorithm, base.Workload, base.N, err)
			}
			id = fmt.Sprintf("%s/%s n=%d", base.Algorithm, base.Workload, base.N)
		}
		dNs := delta(base.NsPerRound, cur.NsPerRound)
		dAllocs := delta(base.AllocsPerRound, cur.AllocsPerRound)
		fmt.Printf("%-16s %-10s %6d | %12.0f %12.0f %7.1f%% | %10.1f %10.1f %7.1f%%\n",
			base.Algorithm, base.Workload, base.N,
			base.NsPerRound, cur.NsPerRound, 100*dNs,
			base.AllocsPerRound, cur.AllocsPerRound, 100*dAllocs)
		if !f.fanout && dAllocs > f.allocTh {
			regressions = append(regressions,
				fmt.Sprintf("%s: allocs/round %+.1f%% (threshold %.0f%%)", id, 100*dAllocs, 100*f.allocTh))
		}
		if f.nsTh > 0 && dNs > f.nsTh {
			regressions = append(regressions,
				fmt.Sprintf("%s: ns/round %+.1f%% (threshold %.0f%%)", id, 100*dNs, 100*f.nsTh))
		}
	}
	if kept == 0 {
		return fmt.Errorf("no baseline records in %s match the filters", f.path)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("perf regressions vs %s:\n  %s", f.path, strings.Join(regressions, "\n  "))
	}
	if f.fanout {
		fmt.Printf("OK: %d records keep encodes/round ≤ baseline (allocs informational%s)\n",
			kept, nsNote(f.nsTh))
		return nil
	}
	fmt.Printf("OK: %d records within thresholds (allocs ≤ +%.0f%%%s)\n",
		kept, 100*f.allocTh, nsNote(f.nsTh))
	return nil
}

func nsNote(nsTh float64) string {
	if nsTh > 0 {
		return fmt.Sprintf(", ns ≤ +%.0f%%", 100*nsTh)
	}
	return ", ns informational"
}

// delta is the relative change from base to cur, with an allocation
// floor so near-zero baselines don't explode the ratio.
func delta(base, cur float64) float64 {
	if base < 1 {
		base = 1
	}
	return (cur - base) / base
}

func filterSet(explicit bool, names []string) map[string]bool {
	if !explicit {
		return nil
	}
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
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
