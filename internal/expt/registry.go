package expt

import (
	"fmt"

	"adnet/internal/baseline"
	"adnet/internal/core"
	"adnet/internal/sim"
	"adnet/internal/tasks"
)

// Algorithm names, in registry order.
const (
	AlgoStar        = "graph-to-star"
	AlgoWreath      = "graph-to-wreath"
	AlgoThinWreath  = "graph-to-thinwreath"
	AlgoClique      = "clique"
	AlgoFlood       = "flood"
	AlgoCentralized = "centralized-euler"
)

// algorithm is one registry entry: everything that depends on which
// algorithm a run names. Execute, the sweep fleet, adnet.Run, spec
// validation and GET /v1/algorithms all read this one table, so a new
// algorithm is one entry here plus its machine.
type algorithm struct {
	name string
	// factory builds the per-node machines; nil marks the centralized
	// baseline, which runs no simulation. Factories are stateless (all
	// per-run state lives in the machines), so one serves every engine.
	factory sim.Factory
	// maxRounds is the default round cap as a function of n; nil keeps
	// the engine default (64·n + 64).
	maxRounds func(n int) int
	// recycle, when non-nil, is sim.WithMachineRecycling under the
	// entry's recycling key: the machines implement sim.Recycler, so
	// repeated runs on one engine restore them in place. Built once
	// here so a recycled run's steady state allocates nothing.
	recycle sim.Option
	// bound is what the entry's theorem promises an n-node run, stated
	// next to the machines. The verdict reads its Depth, the Depth-d
	// Tree target (§2.2), zero where the output is no tree (G_s, K_n);
	// the experiment tables hold each row to all of it.
	bound func(n int) tasks.Bound
}

var registry = []algorithm{
	{name: AlgoStar, factory: core.NewGraphToStarFactory(), recycle: sim.WithMachineRecycling(AlgoStar), bound: core.StarBound},
	{name: AlgoWreath, factory: core.NewGraphToWreathFactory(), maxRounds: wreathMaxRounds(false), recycle: sim.WithMachineRecycling(AlgoWreath), bound: wreathBound(false)},
	{name: AlgoThinWreath, factory: core.NewGraphToThinWreathFactory(), maxRounds: wreathMaxRounds(true), recycle: sim.WithMachineRecycling(AlgoThinWreath), bound: wreathBound(true)},
	{name: AlgoClique, factory: baseline.NewCliqueFactory(), recycle: sim.WithMachineRecycling(AlgoClique), bound: baseline.CliqueBound},
	{name: AlgoFlood, factory: baseline.NewFloodFactory(), recycle: sim.WithMachineRecycling(AlgoFlood), bound: baseline.FloodBound},
	{name: AlgoCentralized, bound: baseline.EulerTourBound},
}

// wreathMaxRounds and wreathBound are the wreath's (thin: the thin
// wreath's) round cap and bound at its factory's branching.
func wreathMaxRounds(thin bool) func(n int) int {
	return func(n int) int { return core.WreathMaxRounds(n, core.WreathBranching(n, thin)) }
}

func wreathBound(thin bool) func(n int) tasks.Bound {
	return func(n int) tasks.Bound { return core.WreathBound(n, core.WreathBranching(n, thin)) }
}

// Algorithms lists every runnable algorithm name, in registry order.
func Algorithms() []string {
	names := make([]string, len(registry))
	for i := range registry {
		names[i] = registry[i].name
	}
	return names
}

// lookup finds the registry entry for name; the error names the valid
// ones.
func lookup(name string) (*algorithm, error) {
	for i := range registry {
		if registry[i].name == name {
			return &registry[i], nil
		}
	}
	return nil, fmt.Errorf("expt: unknown algorithm %q (want one of %v)", name, Algorithms())
}

// Simulated reports whether name is a registered algorithm that runs
// a simulation — every entry but the centralized baseline.
func Simulated(name string) bool {
	a, err := lookup(name)
	return err == nil && a.factory != nil
}

// requireSimulated is the one rule about dynamics and the registry: an
// environment perturbs a simulation, so it cannot attach to an
// algorithm that runs none.
func requireSimulated(algorithms ...string) error {
	for _, name := range algorithms {
		if a, err := lookup(name); err == nil && a.factory == nil {
			return fmt.Errorf("expt: dynamics do not apply to %s (no simulation to perturb)", name)
		}
	}
	return nil
}

// appendDefaults appends the entry's own sim options for an n-node
// run — machine recycling, the default round cap — to opts. Caller
// options go after them, so they override.
func (a *algorithm) appendDefaults(opts []sim.Option, n int) []sim.Option {
	if a.recycle != nil {
		opts = append(opts, a.recycle)
	}
	if a.maxRounds != nil {
		opts = append(opts, sim.WithMaxRounds(a.maxRounds(n)))
	}
	return opts
}

// Simulation returns what running the named algorithm on an n-node
// network through a sim.Engine takes: its machine factory and default
// options. adnet.Run — which hands back the raw sim.Result, not an
// Outcome — runs from the registry through it.
func Simulation(name string, n int) (sim.Factory, []sim.Option, error) {
	a, err := lookup(name)
	if err != nil {
		return nil, nil, err
	}
	if a.factory == nil {
		return nil, nil, fmt.Errorf("expt: %s runs no simulation", name)
	}
	return a.factory, a.appendDefaults(nil, n), nil
}
