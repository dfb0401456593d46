package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"runtime/debug"
	"time"

	"adnet/internal/expt"
	"adnet/internal/sim"
	"adnet/internal/tasks"
)

// The library workloads take the path adnet and adnet-bench take: one
// expt.Runner (or expt.ExecuteSweep) in this process, no service layer.

func runStarLarge(cfg *config) (*result, error) {
	return runSingleCell(cfg, cellSpec{algo: expt.AlgoStar, family: "line", n: cfg.size.starN}, starOracle)
}

func runFloodLine(cfg *config) (*result, error) {
	return runSingleCell(cfg, cellSpec{algo: expt.AlgoFlood, family: "line", n: cfg.size.floodN}, floodOracle)
}

// starOracle accepts a graph-to-star outcome: the right leader at the
// centre of a star.
func starOracle(out expt.Outcome) error {
	if !out.LeaderOK || out.FinalDiameter > 2 {
		return fmt.Errorf("graph-to-star: leader ok %v, final diameter %d (want a star)", out.LeaderOK, out.FinalDiameter)
	}
	return nil
}

// floodOracle accepts a flood outcome: it ran, and edited no edge.
func floodOracle(out expt.Outcome) error {
	if out.TotalActivations != 0 || out.Rounds == 0 {
		return fmt.Errorf("flood: %d activations in %d rounds (want none: flooding never edits edges)", out.TotalActivations, out.Rounds)
	}
	return nil
}

// cellSpec names the cell a single-cell workload repeats, and the cell
// every traced run pushes through the layers one call at a time.
type cellSpec struct {
	algo, family string
	n            int
}

func (c cellSpec) request(seed int64, opts ...sim.Option) expt.Request {
	return expt.Request{Algorithm: c.algo, Workload: c.family, N: c.n, Seed: seed, SimOpts: opts}
}

// untilDone calls op with i = 0, 1, … until cfg.seconds have passed
// and at least minOps calls were made, and returns the loop's wall
// time. The op sequence is a function of the seed alone; only its
// length depends on the clock.
func untilDone(cfg *config, seconds float64, op func(i int) error) (time.Duration, error) {
	start := time.Now()
	for i := 0; ; i++ {
		if err := op(i); err != nil {
			return 0, err
		}
		if el := time.Since(start); el.Seconds() >= seconds && i+1 >= cfg.size.minOps {
			return el, nil
		}
	}
}

// digestOf hashes the simulated statistics of a run's first measured
// operation. It is informational: equal across two commits exactly
// when the simulation traces are unchanged.
func digestOf(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		return "unhashable"
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// runSingleCell repeats one cell on one warm Runner with the engine at
// workers=1. A set-up is a fresh Runner plus the warm-up run that sizes
// every engine buffer.
func runSingleCell(cfg *config, cell cellSpec, oracle func(expt.Outcome) error) (*result, error) {
	res := newResult()
	if cfg.tr != nil {
		if err := traceLibrary(cfg, res, cell, oracle); err != nil {
			return nil, err
		}
		return res, nil
	}
	seq := sim.WithParallelism(1)
	var r *expt.Runner
	var setups []float64
	for s := 0; s < cfg.size.setups; s++ {
		if r != nil {
			// Hand the previous set-up's arena back to the OS, so the
			// peak below is one Runner's, not however many the collector
			// had not yet freed.
			r.Close()
			r = nil
			debug.FreeOSMemory()
		}
		start := time.Now()
		r = expt.NewRunner()
		out, err := r.Execute(cell.request(cfg.seed, seq))
		if err == nil {
			err = oracle(out)
		}
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer r.Close()

	var opMS, nsPerNodeRound []float64
	wall, err := untilDone(cfg, cfg.seconds, func(i int) error {
		start := time.Now()
		out, err := r.Execute(cell.request(cfg.seed+int64(i), seq))
		d := time.Since(start)
		if err == nil {
			err = oracle(out)
		}
		res.op(err)
		if err != nil {
			return nil
		}
		if i == 0 {
			res.digest = digestOf(out)
		}
		opMS = append(opMS, ms(d))
		nsPerNodeRound = append(nsPerNodeRound, float64(d.Nanoseconds())/float64(out.N*out.Rounds))
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", median(setups))
	res.set("op_ms_p50", median(opMS))
	res.set("cells_per_s", float64(res.attempted)/wall.Seconds())
	res.set("ns_per_node_round", median(nsPerNodeRound))
	res.set("peak_rss_mb", peakRSSMB(os.Getpid()))
	return res, nil
}

// wreathPoolWindows is how many disjoint seed windows the wreath grid
// draws from: seeds 1..600 of random-tree, on which all 2,400 probed
// cells (both algorithms, n=128 and 256) pass at the commit that added
// this benchmark. Outside a verified pool the §4/§5 machines still fail
// some inputs (ROADMAP item 1), and a workload must not.
const wreathPoolSeeds = 600

// wreathGrid is {wreath, thinwreath} × {line, ring, random-tree} ×
// sizes × one window of seeds, the window picked by the run's seed.
func wreathGrid(cfg *config, seedsPerGroup int) expt.SweepSpec {
	windows := int64(wreathPoolSeeds / seedsPerGroup)
	first := 1 + (((cfg.seed%windows)+windows)%windows)*int64(seedsPerGroup)
	seeds := make([]int64, seedsPerGroup)
	for k := range seeds {
		seeds[k] = first + int64(k)
	}
	return expt.SweepSpec{
		Algorithms: []string{expt.AlgoWreath, expt.AlgoThinWreath},
		Workloads:  []string{"line", "ring", "random-tree"},
		Sizes:      cfg.size.wreathSizes,
		Seeds:      seeds,
	}
}

// wreathDepthBound is the Depth-log n Tree bound both wreath algorithms
// are tested against in internal/core: ⌈log2 n⌉+1.
func wreathDepthBound(n int) int { return bits.Len(uint(n)) + 1 }

// checkWreathCell is the per-cell oracle on what a sweep hands back.
func checkWreathCell(c expt.CellResult) error {
	switch bound := wreathDepthBound(c.Cell.N); {
	case c.Err != nil:
		return fmt.Errorf("%s/%s/n=%d/seed=%d: %w", c.Cell.Algorithm, c.Cell.Workload, c.Cell.N, c.Cell.Seed, c.Err)
	case !c.Outcome.LeaderOK || c.Outcome.FinalDepth > bound:
		return fmt.Errorf("%s/%s/n=%d/seed=%d: leader ok %v, depth %d (bound %d)",
			c.Cell.Algorithm, c.Cell.Workload, c.Cell.N, c.Cell.Seed, c.Outcome.LeaderOK, c.Outcome.FinalDepth, bound)
	}
	return nil
}

// verifyWreathTrees re-runs the first seed of every (algorithm, family,
// size) group directly on an engine — a sweep hands back outcomes, not
// final graphs — and checks tasks.VerifyDepthTree at the bound, and
// that the direct run reproduces the sweep's outcome, which is what
// lets one verified run vouch for the measured one.
func verifyWreathTrees(results []expt.CellResult) error {
	eng := sim.NewEngine()
	defer eng.Close()
	seen := make(map[expt.Cell]bool)
	for _, c := range results {
		group := expt.Cell{Algorithm: c.Cell.Algorithm, Workload: c.Cell.Workload, N: c.Cell.N}
		if seen[group] || c.Err != nil {
			continue
		}
		seen[group] = true
		g, err := expt.Workload(c.Cell.Workload, c.Cell.N, c.Cell.Seed)
		if err != nil {
			return err
		}
		factory, opts := algorithmFactory(c.Cell.Algorithm, c.Cell.N)
		if err := eng.Reset(g, factory, opts...); err != nil {
			return err
		}
		run, err := eng.Run()
		if err != nil {
			return fmt.Errorf("%v: %w", c.Cell, err)
		}
		if run.Rounds != c.Outcome.Rounds || run.Metrics.TotalActivations != c.Outcome.TotalActivations {
			return fmt.Errorf("%v: direct run took %d rounds / %d activations, the sweep's cell %d / %d",
				c.Cell, run.Rounds, run.Metrics.TotalActivations, c.Outcome.Rounds, c.Outcome.TotalActivations)
		}
		if err := tasks.VerifyDepthTree(run.History.CurrentView(), g.MaxID(), wreathDepthBound(c.Cell.N)); err != nil {
			return fmt.Errorf("%v: %w", c.Cell, err)
		}
	}
	return nil
}

// nodeRounds is Σ n·rounds over a sweep's successful cells: the
// simulated events the sweep's wall time bought.
func nodeRounds(results []expt.CellResult) (total int) {
	for _, c := range results {
		if c.Err == nil {
			total += c.Cell.N * c.Outcome.Rounds
		}
	}
	return total
}

// runWreathGrid repeats one ExecuteSweep over the wreath grid with the
// cells sharded across nproc Runners.
func runWreathGrid(cfg *config) (*result, error) {
	res := newResult()
	spec := wreathGrid(cfg, cfg.size.wreathSeeds)
	if cfg.tr != nil {
		if err := traceWreath(cfg, res, spec); err != nil {
			return nil, err
		}
		return res, nil
	}
	opts := expt.SweepOptions{Workers: cfg.nproc}
	var setups []float64
	for s := 0; s < cfg.size.setups; s++ {
		start := time.Now()
		if _, err := expt.ExecuteSweep(spec, opts); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var opMS, nsPerNodeRound []float64
	var first []expt.CellResult
	wall, err := untilDone(cfg, cfg.seconds, func(i int) error {
		start := time.Now()
		results, err := expt.ExecuteSweep(spec, opts)
		d := time.Since(start)
		if err != nil {
			return err
		}
		for _, c := range results {
			res.op(checkWreathCell(c))
		}
		if i == 0 {
			first = results
			res.digest = digestOfCells(results)
		}
		opMS = append(opMS, ms(d))
		nsPerNodeRound = append(nsPerNodeRound, float64(d.Nanoseconds())/float64(max(nodeRounds(results), 1)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := verifyWreathTrees(first); err != nil {
		res.wrong(err)
	}
	res.set("setup_s", median(setups))
	res.set("op_ms_p50", median(opMS))
	res.set("cells_per_s", float64(res.attempted)/wall.Seconds())
	res.set("ns_per_node_round", median(nsPerNodeRound))
	res.set("peak_rss_mb", peakRSSMB(os.Getpid()))
	return res, nil
}

// digestOfCells hashes the outcomes of a sweep in canonical order.
func digestOfCells(results []expt.CellResult) string {
	outs := make([]expt.Outcome, len(results))
	for i, c := range results {
		outs[i] = c.Outcome
	}
	return digestOf(outs)
}
