// Package adnet is a Go implementation of "Distributed Computation and
// Reconfiguration in Actively Dynamic Networks" (Michail, Skretas,
// Spirakis; PODC 2020): a synchronous message-passing model in which
// nodes actively activate and deactivate edges under the distance-2
// rule, the paper's three (poly)logarithmic-time reconfiguration
// algorithms — GraphToStar, GraphToWreath, GraphToThinWreath — the
// baselines they are measured against, and the edge-complexity
// accounting (total edge activations, maximum activated edges per
// round, maximum activated degree) the paper introduces.
//
// Quick start:
//
//	g := adnet.Line(128)
//	res, err := adnet.Run(adnet.GraphToStar, g)
//	// res.FinalGraph() is a spanning star centered at the max UID
//	// (res.Verify() checks it); res.Metrics holds the cost measures.
//
// The typed sub-packages remain available for advanced use: the engine
// (internal/sim), the temporal-graph ledger (internal/temporal) and
// the experiment harness (internal/expt) behind `adnet -experiments`.
package adnet

import (
	"fmt"
	"math/rand"

	"adnet/internal/expt"
	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/temporal"
)

// Graph re-exports the static graph type used for initial networks.
type Graph = graph.Graph

// ID is a node identifier, doubling as its UID.
type ID = graph.ID

// Metrics re-exports the paper's cost measures.
type Metrics = temporal.Metrics

// Algorithm selects one of the implemented strategies.
type Algorithm int

// The implemented algorithms and baselines.
const (
	// GraphToStar is §3: O(log n) time, O(n log n) activations,
	// spanning star (diameter 2), linear degree.
	GraphToStar Algorithm = iota + 1
	// GraphToWreath is §4: O(log² n) time, O(n log² n) activations,
	// O(1) activated degree, spanning binary tree (depth log n).
	GraphToWreath
	// GraphToThinWreath is §5: polylog degree, shallower gadget.
	GraphToThinWreath
	// CliqueFormation is the trivial §1.2 strategy (Θ(n²) edges).
	CliqueFormation
	// Flooding never reconfigures: Θ(diameter) time, zero activations.
	Flooding
)

// algorithms gives each Algorithm its display name and its entry in
// the expt registry, which owns what an algorithm runs: machine
// factory, default round cap, machine recycling.
var algorithms = [...]struct{ name, registry string }{
	GraphToStar:       {"GraphToStar", expt.AlgoStar},
	GraphToWreath:     {"GraphToWreath", expt.AlgoWreath},
	GraphToThinWreath: {"GraphToThinWreath", expt.AlgoThinWreath},
	CliqueFormation:   {"CliqueFormation", expt.AlgoClique},
	Flooding:          {"Flooding", expt.AlgoFlood},
}

func (a Algorithm) known() bool { return a >= GraphToStar && int(a) < len(algorithms) }

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	if !a.known() {
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
	return algorithms[a].name
}

// Result is the outcome of Run.
type Result struct {
	// Algorithm that produced this result.
	Algorithm Algorithm
	// Rounds until every node halted.
	Rounds int
	// Metrics are the paper's edge-complexity measures.
	Metrics Metrics
	// Leader is the elected node (the maximum UID on success).
	Leader ID
	// LeaderElected reports whether exactly one leader emerged.
	LeaderElected bool

	res      *sim.Result
	perRound []temporal.RoundStats
}

// FinalGraph returns a copy of the final active network.
func (r *Result) FinalGraph() *Graph { return r.res.History.CurrentClone() }

// PerRound returns the per-round accounting (activations,
// deactivations, live edges), one entry per round's RoundDelta.Stats.
func (r *Result) PerRound() []temporal.RoundStats { return r.perRound }

// Verify judges the run as the experiment harness does: the maximum UID
// elected and, for GraphToStar and both wreaths, a spanning tree of the
// depth their theorem states.
func (r *Result) Verify() error { return expt.Verify(algorithms[r.Algorithm].registry, r.res) }

// Option configures Run.
type Option = sim.Option

// WithMaxRounds caps the execution length.
func WithMaxRounds(rounds int) Option { return sim.WithMaxRounds(rounds) }

// WithConnectivityCheck makes Run fail if the active network ever
// disconnects (the paper's algorithms never disconnect it).
func WithConnectivityCheck() Option { return sim.WithConnectivityCheck() }

// Failure is a failed run's error (reach it with errors.As): its Kind
// — round_limit, model_violation, non_neighbor_send, machine_panic,
// environment_refused, disconnected or canceled — and the round and
// nodes it names.
type Failure = sim.Failure

// Run executes the algorithm on the initial network gs, which must be
// connected. The initial graph is not modified. A run that fails
// returns its partial Result beside a *Failure; an invalid input
// returns no Result.
func Run(algo Algorithm, gs *Graph, opts ...Option) (*Result, error) {
	if !algo.known() {
		var valid []Algorithm
		for a := GraphToStar; a.known(); a++ {
			valid = append(valid, a)
		}
		return nil, fmt.Errorf("adnet: unknown algorithm %v (want one of %v)", algo, valid)
	}
	if gs == nil {
		return nil, fmt.Errorf("adnet: nil initial graph")
	}
	factory, defaults, err := expt.Simulation(algorithms[algo].registry, gs.NumNodes())
	if err != nil {
		return nil, err
	}
	var perRound []temporal.RoundStats
	opts = append(append(defaults, opts...), sim.WithDeltaHook(func(d temporal.RoundDelta) { perRound = append(perRound, d.Stats) }))
	res, err := sim.Run(gs, factory, opts...)
	if res == nil {
		return nil, err
	}
	leader, ok := res.Leader()
	return &Result{
		Algorithm:     algo,
		Rounds:        res.Rounds,
		Metrics:       res.Metrics,
		Leader:        leader,
		LeaderElected: ok,
		res:           res,
		perRound:      perRound,
	}, err
}

// Generators, re-exported for convenience.

// Line returns the spanning line on IDs 0..n-1 (the paper's worst
// case).
func Line(n int) *Graph { return graph.Line(n) }

// Ring returns the increasing-order ring (the Theorem 6.4 lower-bound
// instance).
func Ring(n int) *Graph { return graph.IncreasingRing(n) }

// RandomConnected returns a random connected graph with the given
// number of extra (non-tree) edges.
func RandomConnected(n, extra int, seed int64) *Graph {
	return graph.RandomConnected(n, extra, rand.New(rand.NewSource(seed)))
}

// RandomBoundedDegree returns a connected graph with maximum degree at
// most maxDeg (the GraphToWreath workload family).
func RandomBoundedDegree(n, maxDeg, extra int, seed int64) (*Graph, error) {
	return graph.RandomBoundedDegree(n, maxDeg, extra, rand.New(rand.NewSource(seed)))
}

// Tradeoff runs every algorithm (including the centralized Euler-tour
// strategy) on a spanning line of n nodes and returns the rendered
// §1.3 comparison table.
func Tradeoff(n int) (string, error) {
	t, err := expt.TradeoffTable(n)
	if err != nil {
		return "", err
	}
	return t.String(), nil
}
