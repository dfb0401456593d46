package expt

import (
	"fmt"
	"math"

	"adnet/internal/baseline"
	"adnet/internal/bounds"
	"adnet/internal/core"
	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/subroutine"
)

// experiments is the experiment index E1–E13, in order.
var experiments = []struct {
	id  string
	run func(sizes []int) (*Table, error)
}{
	{"E1", E1TreeToStar},
	{"E2", E2LineToCBT},
	{"E3", E3GraphToStar},
	{"E4", E4GraphToWreath},
	{"E5", E5GraphToThinWreath},
	{"E6", E6TimeLowerBound},
	{"E7", E7CentralizedLine},
	{"E8", E8CentralizedEuler},
	{"E9", E9DistributedActivations},
	{"E10", E10Clique},
	{"E11", E11Flooding},
	{"E12", E12Compose},
	{"E13", E13Phases},
}

// ExperimentIDs lists the implemented experiment identifiers in order.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// Run executes the experiment with the given ID at the given sizes
// (nil = defaults) and returns its table.
func Run(id string, sizes []int) (*Table, error) {
	for _, e := range experiments {
		if e.id == id {
			return e.run(sizes)
		}
	}
	return nil, fmt.Errorf("expt: unknown experiment %q", id)
}

// runRows executes algo on the workload family at each size, seeded by
// n, and appends row(n, outcome) to t.
func (t *Table) runRows(algo, workload string, sizes []int, row func(n int, out Outcome) []string) (*Table, error) {
	for _, n := range sizes {
		out, err := Execute(Request{Algorithm: algo, Workload: workload, N: n, Seed: int64(n)})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row(n, out))
	}
	return t, nil
}

// lineParents roots the spanning line 0…n−1 at its end n−1, u_max.
func lineParents(n int) map[graph.ID]graph.ID {
	parents := make(map[graph.ID]graph.ID, n)
	for i := range n {
		parents[graph.ID(i)] = graph.ID(min(i+1, n-1))
	}
	return parents
}

func defSizes(sizes []int, def []int) []int {
	if len(sizes) > 0 {
		return sizes
	}
	return def
}

// E1TreeToStar: Proposition 2.1 — TreeToStar finishes in ⌈log d⌉
// rounds with at most 2n-3 active edges per round.
func E1TreeToStar(sizes []int) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "TreeToStar on spanning lines (rooted at u_max)",
		Claim:   "Prop 2.1: ⌈log d⌉ rounds, ≤ 2n-3 active edges/round, O(n log n) activations",
		Columns: []string{"n", "rounds", "ceil(log d)", "maxActiveEdges", "2n-3", "totalAct"},
	}
	for _, n := range defSizes(sizes, []int{64, 256, 1024, 4096}) {
		res, err := sim.Run(graph.Line(n), subroutine.NewTreeToStarFactory(lineParents(n)))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(res.Rounds), fmt.Sprint(logn(n - 1)),
			fmt.Sprint(res.Metrics.MaxActiveEdges), fmt.Sprint(2*n - 3),
			fmt.Sprint(res.Metrics.TotalActivations),
		})
	}
	return t, nil
}

// E2LineToCBT: Proposition 2.2 — LineToCompleteBinaryTree.
func E2LineToCBT(sizes []int) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "LineToCompleteBinaryTree",
		Claim:   "Prop 2.2: ⌈log d⌉ hop levels, degree ≤ 4, ≤ 2n-3 active edges/round",
		Columns: []string{"n", "lastActivity", "maxActDegree", "maxActiveEdges", "2n-3", "finalDepth"},
	}
	for _, n := range defSizes(sizes, []int{64, 256, 1024, 4096}) {
		factory, err := subroutine.NewLineToTreeFactory(subroutine.LineToTreeOptions{
			Branching: 2, Parents: lineParents(n),
		})
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(graph.Line(n), factory)
		if err != nil {
			return nil, err
		}
		depth := res.History.CurrentClone().Eccentricity(graph.ID(n - 1))
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(res.Metrics.LastActivityRound),
			fmt.Sprint(res.Metrics.MaxActivatedDegree),
			fmt.Sprint(res.Metrics.MaxActiveEdges), fmt.Sprint(2*n - 3),
			fmt.Sprint(depth),
		})
	}
	return t, nil
}

// mainAlgoTable shares the layout of E3/E4/E5.
func mainAlgoTable(id, title, claim, algo, workload string, sizes, def []int) (*Table, error) {
	t := &Table{
		ID: id, Title: title, Claim: claim,
		Columns: []string{"n", "rounds", "rounds/log n", "totalAct", "act/(n log n)",
			"maxActEdges", "maxActDeg", "finalDepth", "leaderOK"},
	}
	return t.runRows(algo, workload, defSizes(sizes, def), func(n int, out Outcome) []string {
		ln := float64(logn(n))
		return []string{
			fmt.Sprint(n), fmt.Sprint(out.Rounds), f2(float64(out.Rounds) / ln),
			fmt.Sprint(out.TotalActivations), f2(float64(out.TotalActivations) / (float64(n) * ln)),
			fmt.Sprint(out.MaxActivatedEdges), fmt.Sprint(out.MaxActivatedDegree),
			fmt.Sprint(out.FinalDepth), fmt.Sprint(out.LeaderOK),
		}
	})
}

// E3GraphToStar: Theorem 3.8.
func E3GraphToStar(sizes []int) (*Table, error) {
	return mainAlgoTable("E3", "GraphToStar on spanning lines",
		"Thm 3.8: O(log n) rounds, O(n log n) activations, ≤ 2n activated edges alive, diameter 2",
		AlgoStar, "line", sizes, []int{64, 256, 1024, 4096})
}

// E4GraphToWreath: Theorem 4.2.
func E4GraphToWreath(sizes []int) (*Table, error) {
	return mainAlgoTable("E4", "GraphToWreath on bounded-degree graphs",
		"Thm 4.2: O(log² n) rounds, O(n log² n) activations, O(n) active edges, O(1) degree, depth log n",
		AlgoWreath, "bounded-degree", sizes, []int{64, 128, 256, 512})
}

// E5GraphToThinWreath: Theorem 5.1.
func E5GraphToThinWreath(sizes []int) (*Table, error) {
	// The default sizes stop at 384; why is in
	// DESIGN.md § "Known deviations and failures".
	return mainAlgoTable("E5", "GraphToThinWreath on bounded-degree graphs",
		"Thm 5.1: polylog degree, diameter O(log n / log log n), time ≤ GraphToWreath",
		AlgoThinWreath, "bounded-degree", sizes, []int{64, 128, 256, 384})
}

// E6TimeLowerBound: Lemma 6.1/D.2 — potential decay forces Ω(log n)
// rounds on the spanning line.
func E6TimeLowerBound(sizes []int) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Potential decay PO(u_left, u_right) on the spanning line (GraphToStar)",
		Claim:   "Lemma 6.1: the potential at best halves per round ⇒ Ω(log n) rounds",
		Columns: []string{"n", "initialPO", "rounds", "log2(n)", "maxDropFactor"},
	}
	for _, n := range defSizes(sizes, []int{64, 256, 1024}) {
		series, res, err := bounds.PotentialSeries(graph.Line(n),
			core.NewGraphToStarFactory(), 0, graph.ID(n-1))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(series[0]), fmt.Sprint(res.Rounds),
			fmt.Sprint(logn(n)), f2(bounds.MinPotentialDropFactor(series)),
		})
	}
	return t, nil
}

// E7CentralizedLine: Lemma 6.2/D.3-D.4 + CutInHalf upper bound.
func E7CentralizedLine(sizes []int) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "Centralized CutInHalf on the spanning line",
		Claim:   "Lemmas D.3/D.4: Θ(n) total activations, Ω(n/log n) per round, ⌈log n⌉ rounds",
		Columns: []string{"n", "rounds", "totalAct", "act/n", "maxPerRound"},
	}
	for _, n := range defSizes(sizes, []int{64, 256, 1024, 4096, 16384}) {
		res, err := baseline.CutInHalfLine(n)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(res.Metrics.Rounds),
			fmt.Sprint(res.Metrics.TotalActivations),
			f2(float64(res.Metrics.TotalActivations) / float64(n)),
			fmt.Sprint(res.MaxRoundActivations),
		})
	}
	return t, nil
}

// E8CentralizedEuler: Theorem 6.3 on general graphs.
func E8CentralizedEuler(sizes []int) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "Centralized Euler-tour strategy on random connected graphs",
		Claim:   "Thm 6.3: Θ(n) total activations, O(log n) rounds, Depth-log n tree, any graph",
		Columns: []string{"n", "rounds", "totalAct", "act/n", "finalDepth", "log2(2n)"},
	}
	return t.runRows(AlgoCentralized, "random", defSizes(sizes, []int{64, 256, 1024, 4096}), func(n int, out Outcome) []string {
		return []string{
			fmt.Sprint(n), fmt.Sprint(out.Rounds), fmt.Sprint(out.TotalActivations),
			f2(float64(out.TotalActivations) / float64(n)),
			fmt.Sprint(out.FinalDepth), fmt.Sprint(logn(2 * n)),
		}
	})
}

// E9DistributedActivations: Theorem 6.4 — the distributed/centralized
// activation separation on the increasing-order ring.
func E9DistributedActivations(sizes []int) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "Distributed vs centralized total activations on the increasing-order ring",
		Claim:   "Thm 6.4: distributed needs Ω(n log n); centralized needs only Θ(n)",
		Columns: []string{"n", "distAct", "centAct", "ratio", "distAct/(n log n)"},
	}
	for _, n := range defSizes(sizes, []int{64, 256, 1024}) {
		out, err := Execute(Request{Algorithm: AlgoStar, Workload: "increasing-ring", N: n, Seed: int64(n)})
		if err != nil {
			return nil, err
		}
		cent, err := Execute(Request{Algorithm: AlgoCentralized, Workload: "increasing-ring", N: n, Seed: int64(n)})
		if err != nil {
			return nil, err
		}
		ratio := float64(out.TotalActivations) / float64(cent.TotalActivations)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(out.TotalActivations),
			fmt.Sprint(cent.TotalActivations), f2(ratio),
			f2(float64(out.TotalActivations) / (float64(n) * float64(logn(n)))),
		})
	}
	return t, nil
}

// E10Clique: §1.2 — time optimal, edge complexity maximal.
func E10Clique(sizes []int) (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "Clique formation (the trivial strategy)",
		Claim:   "§1.2: O(log n) rounds but Θ(n²) activations/edges and degree n-1",
		Columns: []string{"n", "rounds", "totalAct", "act/n²", "maxActDeg"},
	}
	return t.runRows(AlgoClique, "line", defSizes(sizes, []int{32, 64, 128, 256}), func(n int, out Outcome) []string {
		return []string{
			fmt.Sprint(n), fmt.Sprint(out.Rounds), fmt.Sprint(out.TotalActivations),
			f2(float64(out.TotalActivations) / float64(n*n)),
			fmt.Sprint(out.MaxActivatedDegree),
		}
	})
}

// E11Flooding: §1.2 — no reconfiguration means Θ(diameter) time.
func E11Flooding(sizes []int) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "Flooding on the spanning line (no reconfiguration)",
		Claim:   "§1.2: 0 activations but Θ(n) rounds — linear time is the price of a static network",
		Columns: []string{"n", "rounds", "rounds/n", "totalAct"},
	}
	return t.runRows(AlgoFlood, "line", defSizes(sizes, []int{64, 256, 1024, 4096}), func(n int, out Outcome) []string {
		return []string{
			fmt.Sprint(n), fmt.Sprint(out.Rounds),
			f2(float64(out.Rounds) / float64(n)), fmt.Sprint(out.TotalActivations),
		}
	})
}

// E12Compose: §1.3 — transform + compute: after GraphToStar the
// network has diameter 2, so global dissemination costs O(1) extra
// rounds; the composed pipeline beats flooding by Θ(n / log n).
func E12Compose(sizes []int) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "Composition: GraphToStar + token dissemination vs pure flooding (line)",
		Claim:   "§1.3: transform to polylog diameter, then any global function in +O(depth) rounds",
		Columns: []string{"n", "transformRounds", "dissemRounds", "composedTotal", "floodRounds", "speedup"},
	}
	for _, n := range defSizes(sizes, []int{64, 256, 1024, 4096}) {
		g := graph.Line(n)
		star, err := sim.Run(g, core.NewGraphToStarFactory())
		if err != nil {
			return nil, err
		}
		flood, err := sim.Run(star.History.CurrentClone(), baseline.NewFloodFactory())
		if err != nil {
			return nil, err
		}
		pure, err := sim.Run(g, baseline.NewFloodFactory())
		if err != nil {
			return nil, err
		}
		composed := star.Rounds + flood.Rounds
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(star.Rounds), fmt.Sprint(flood.Rounds),
			fmt.Sprint(composed), fmt.Sprint(pure.Rounds),
			f2(float64(pure.Rounds) / float64(composed)),
		})
	}
	return t, nil
}

// E13Phases: Lemmas 3.6/3.7 — GraphToStar needs O(log n) phases of
// constant length.
func E13Phases(sizes []int) (*Table, error) {
	t := &Table{
		ID:      "E13",
		Title:   "GraphToStar phase accounting",
		Claim:   "Lemmas 3.6/3.7: O(log n) phases, O(1) rounds per phase",
		Columns: []string{"n", "rounds", "phases", "phases/log n"},
	}
	return t.runRows(AlgoStar, "line", defSizes(sizes, []int{64, 256, 1024, 4096}), func(n int, out Outcome) []string {
		phases := int(math.Ceil(float64(out.Rounds) / core.StarPhaseLength))
		return []string{
			fmt.Sprint(n), fmt.Sprint(out.Rounds), fmt.Sprint(phases),
			f2(float64(phases) / float64(logn(n))),
		}
	})
}

// TradeoffTable is the paper's headline comparison (§1.3): every
// algorithm on the same workload, all cost measures side by side.
func TradeoffTable(n int) (*Table, error) {
	t := &Table{
		ID:      "T1",
		Title:   fmt.Sprintf("The time/edge-complexity tradeoff at n=%d (spanning line)", n),
		Claim:   "§1.3: each algorithm trades time against edge complexity differently",
		Columns: []string{"algorithm", "rounds", "totalAct", "maxActEdges", "maxActDeg", "finalDepth", "leaderOK"},
	}
	for _, algo := range Algorithms() {
		out, err := Execute(Request{Algorithm: algo, Workload: "line", N: n, Seed: int64(n)})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			algo, fmt.Sprint(out.Rounds), fmt.Sprint(out.TotalActivations),
			fmt.Sprint(out.MaxActivatedEdges), fmt.Sprint(out.MaxActivatedDegree),
			fmt.Sprint(out.FinalDepth), fmt.Sprint(out.LeaderOK),
		})
	}
	return t, nil
}
