// Package expt is the experiment harness: it regenerates every
// table/figure-level claim of the paper (DESIGN.md § "Experiment index
// (E1–E13)") as measured series, the tables cmd/adnet-bench prints.
package expt

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"

	"adnet/internal/baseline"
	"adnet/internal/dynamics"
	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/tasks"
)

// Outcome is the unified measurement of one run, in the paper's cost
// measures (§2.2). The dynamics fields (environment edits and injected
// faults) are zero — and omitted from the wire shape — for runs
// without a dynamics environment, so pre-dynamics streams and caches
// stay byte-identical.
type Outcome struct {
	N                  int
	Rounds             int // rounds until every node halted
	LastActivity       int // last round with an edge activation/deactivation
	TotalActivations   int
	MaxActivatedEdges  int // max_i |E(i) \ E(1)|
	MaxActivatedDegree int
	TotalMessages      int // delivered point-to-point messages (0 for the centralized baseline)
	FinalDiameter      int // diameter of the final active graph
	FinalDepth         int // eccentricity of the elected leader
	LeaderOK           bool
	EnvActivations     int `json:"EnvActivations,omitempty"`   // edges the environment switched on
	EnvDeactivations   int `json:"EnvDeactivations,omitempty"` // edges the environment cut
	Crashes            int `json:"Crashes,omitempty"`          // node outages the engine applied
	Restarts           int `json:"Restarts,omitempty"`         // node restarts the engine applied
}

// Request names one deterministic run: an algorithm, a workload
// family, a size and a seed. It is the spec-driven entry point shared
// by the CLIs and the service layer (internal/service).
type Request struct {
	Algorithm string
	Workload  string
	N         int
	Seed      int64
	// Dynamics, when non-nil, attaches the described adversarial
	// environment (internal/dynamics) to the run: the network is
	// perturbed between rounds and the outcome's Env*/Crashes/Restarts
	// fields report the injected disruption. The centralized baseline
	// runs no simulation and rejects dynamics.
	Dynamics *dynamics.Spec
	// SimOpts are appended after the algorithm's own defaults, so
	// callers can override round limits or attach hooks. The
	// centralized baseline runs no simulation and ignores them.
	SimOpts []sim.Option
}

// Execute builds the workload and runs the algorithm on it, on a
// throwaway Runner; hold a Runner instead when executing many runs.
func Execute(req Request) (Outcome, error) {
	r := NewRunner()
	defer r.Close()
	return r.Execute(req)
}

// RunAlgorithm executes the named algorithm on a copy of gs, with
// extra simulation options appended after the algorithm's defaults,
// and returns the unified outcome. It runs on a throwaway Runner; hold
// one instead when executing many runs.
func RunAlgorithm(name string, gs *graph.Graph, extra ...sim.Option) (Outcome, error) {
	r := NewRunner()
	defer r.Close()
	return r.RunAlgorithm(name, gs, extra...)
}

// RunAlgorithm executes the named algorithm on gs through the
// Runner's engine, with extra simulation options appended after the
// algorithm's defaults. It is the one execution path behind Execute,
// RunAlgorithm and ExecuteSweep.
func (r *Runner) RunAlgorithm(name string, gs *graph.Graph, extra ...sim.Option) (Outcome, error) {
	algo, err := lookup(name)
	if err != nil {
		return Outcome{}, err
	}
	if gs == nil || gs.NumNodes() == 0 {
		return Outcome{}, fmt.Errorf("expt: empty initial graph")
	}
	n := gs.NumNodes()
	umax := gs.MaxID()
	if algo.factory == nil {
		res, err := baseline.EulerTourStrategy(gs)
		if err != nil {
			return Outcome{}, err
		}
		final := res.History.CurrentView()
		return Outcome{
			N:                  n,
			Rounds:             res.Metrics.Rounds,
			LastActivity:       res.Metrics.LastActivityRound,
			TotalActivations:   res.Metrics.TotalActivations,
			MaxActivatedEdges:  res.Metrics.MaxActivatedEdges,
			MaxActivatedDegree: res.Metrics.MaxActivatedDegree,
			FinalDiameter:      r.bfs.ApproxDiameter(final),
			FinalDepth:         res.Depth,
			LeaderOK:           true, // the centralized controller knows u_max
		}, nil
	}

	// optBuf keeps the option list off the heap: sim options are
	// consumed inside Reset and never retained, so the backing array
	// can live on this frame.
	var optBuf [8]sim.Option
	opts := append(algo.appendDefaults(optBuf[:0], n), extra...)
	if err := r.eng.Reset(gs, algo.factory, opts...); err != nil {
		return Outcome{}, fmt.Errorf("expt: %s on n=%d: %w", name, n, err)
	}
	res, err := r.eng.Run()
	if err != nil {
		return Outcome{}, fmt.Errorf("expt: %s on n=%d: %w", name, n, err)
	}
	// Post-run analysis reads the history's live snapshot (valid until
	// the engine's next Reset) through reusable BFS scratch instead of
	// cloning the final graph.
	final := res.History.CurrentView()
	out := Outcome{
		N:                  n,
		Rounds:             res.Rounds,
		LastActivity:       res.Metrics.LastActivityRound,
		TotalActivations:   res.Metrics.TotalActivations,
		MaxActivatedEdges:  res.Metrics.MaxActivatedEdges,
		MaxActivatedDegree: res.Metrics.MaxActivatedDegree,
		TotalMessages:      res.TotalMessages,
		FinalDiameter:      r.bfs.ApproxDiameter(final),
		LeaderOK:           tasks.VerifyLeaderElection(res, umax) == nil,
		EnvActivations:     res.Metrics.EnvActivations,
		EnvDeactivations:   res.Metrics.EnvDeactivations,
		Crashes:            res.Crashes,
		Restarts:           res.Restarts,
	}
	if final.HasNode(umax) {
		out.FinalDepth = r.bfs.Eccentricity(final, umax)
	}
	return out, nil
}

// Workloads lists every initial-network family name accepted by
// Workload, aliases included.
func Workloads() []string {
	return []string{"line", "ring", "increasing-ring", "random-tree", "bounded-degree", "random", "star", "power-law", "small-world"}
}

// Workload builds the named initial-network family at size n.
func Workload(name string, n int, seed int64) (*graph.Graph, error) {
	return WorkloadInto(graph.New(), nil, name, n, seed)
}

// WorkloadInto builds the named family at size n into dst, resetting
// and reusing its backing arrays (see graph.Reset). scratch, when
// non-nil, is reused the same way by families that need an
// intermediate graph ("random" permutes a generated graph); a nil
// scratch is allocated on demand. The per-Runner arena behind
// engine-fleet sweeps calls this so repeated cells pay workload
// generation only on growth; the generated graph is identical to
// Workload's for equal parameters.
func WorkloadInto(dst, scratch *graph.Graph, name string, n int, seed int64) (*graph.Graph, error) {
	if !slices.Contains(Workloads(), name) {
		return nil, fmt.Errorf("expt: unknown workload %q (want one of %v)", name, Workloads())
	}
	// Every family needs at least two nodes; validating here, before
	// dispatch, keeps the contract uniform instead of per-generator.
	if n < 2 {
		return nil, fmt.Errorf("expt: workload %q needs n >= 2, got %d", name, n)
	}
	// The deterministic families skip the rng so their cells allocate
	// nothing per call.
	switch name {
	case "line":
		return graph.LineInto(dst, n), nil
	case "ring", "increasing-ring":
		return graph.IncreasingRingInto(dst, n), nil
	case "star":
		return graph.StarInto(dst, n), nil
	}
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "random-tree":
		return graph.RandomTreeInto(dst, n, rng), nil
	case "bounded-degree":
		return graph.RandomBoundedDegreeInto(dst, n, 4, n/2, rng)
	case "random":
		if scratch == nil {
			scratch = graph.New()
		}
		return graph.PermuteIDsInto(dst, graph.RandomConnectedInto(scratch, n, n, rng), rng), nil
	case "power-law":
		// Barabási–Albert preferential attachment, m=2 links per new
		// node: heavy-tailed degrees, hubs for targeted-cut to attack.
		return graph.PowerLawInto(dst, n, 2, rng), nil
	case "small-world":
		// Watts–Strogatz ring lattice (k=2 span) with 10% rewiring:
		// high clustering, short paths.
		return graph.SmallWorldInto(dst, n, 2, 0.1, rng), nil
	default:
		return nil, fmt.Errorf("expt: unknown workload %q (want one of %v)", name, Workloads())
	}
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper's claim this table checks
	Columns []string
	Rows    [][]string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "paper: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// logn is ⌈log2 n⌉ as used throughout the bounds.
func logn(n int) int { return bits.Len(uint(n)) }

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
