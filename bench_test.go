package adnet

// The benchmark harness regenerates every table/figure-level claim of
// the paper (DESIGN.md § "Experiment index"). Each benchmark
// reports the paper's cost measures via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the measured series next to wall-clock cost. Absolute times
// are simulator times; the claims under test are the *shapes*: rounds
// per log n, activations per n·log n, degree bounds, final depth, and
// the distributed-vs-centralized separation of Theorem 6.4.

import (
	"fmt"
	"math/bits"
	"runtime"
	"testing"

	"adnet/internal/baseline"
	"adnet/internal/core"
	"adnet/internal/expt"
	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/subroutine"
)

func lineParents(n int) map[graph.ID]graph.ID {
	parents := make(map[graph.ID]graph.ID, n)
	for i := 0; i < n-1; i++ {
		parents[graph.ID(i)] = graph.ID(i + 1)
	}
	parents[graph.ID(n-1)] = graph.ID(n - 1)
	return parents
}

// BenchmarkTreeToStar — E1 (Proposition 2.1).
func BenchmarkTreeToStar(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var rounds, act int
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(graph.Line(n), subroutine.NewTreeToStarFactory(lineParents(n)))
				if err != nil {
					b.Fatal(err)
				}
				rounds, act = res.Rounds, res.Metrics.TotalActivations
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(rounds)/float64(bits.Len(uint(n))), "rounds/logn")
			b.ReportMetric(float64(act), "activations")
		})
	}
}

// BenchmarkLineToCBT — E2 (Proposition 2.2).
func BenchmarkLineToCBT(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			factory, err := subroutine.NewLineToTreeFactory(subroutine.LineToTreeOptions{
				Branching: 2, Parents: lineParents(n),
			})
			if err != nil {
				b.Fatal(err)
			}
			var last, deg int
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(graph.Line(n), factory)
				if err != nil {
					b.Fatal(err)
				}
				last, deg = res.Metrics.LastActivityRound, res.Metrics.MaxActivatedDegree
			}
			b.ReportMetric(float64(last), "activityRounds")
			b.ReportMetric(float64(deg), "maxActDegree")
		})
	}
}

// benchAlgo shares the E3/E4/E5 shape.
func benchAlgo(b *testing.B, algo Algorithm, gen func(n int) *Graph, sizes []int) {
	b.Helper()
	for _, n := range sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := gen(n)
			var out *Result
			for i := 0; i < b.N; i++ {
				var err error
				out, err = Run(algo, g)
				if err != nil {
					b.Fatal(err)
				}
			}
			ln := float64(bits.Len(uint(n)))
			b.ReportMetric(float64(out.Rounds), "rounds")
			b.ReportMetric(float64(out.Rounds)/ln, "rounds/logn")
			b.ReportMetric(float64(out.Metrics.TotalActivations)/(float64(n)*ln), "act/nlogn")
			b.ReportMetric(float64(out.Metrics.MaxActivatedDegree), "maxActDegree")
		})
	}
}

// BenchmarkGraphToStar — E3 (Theorem 3.8).
func BenchmarkGraphToStar(b *testing.B) {
	benchAlgo(b, GraphToStar, Line, []int{256, 1024, 4096})
}

// BenchmarkGraphToWreath — E4 (Theorem 4.2).
func BenchmarkGraphToWreath(b *testing.B) {
	gen := func(n int) *Graph {
		g, err := RandomBoundedDegree(n, 4, n/2, int64(n))
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	benchAlgo(b, GraphToWreath, gen, []int{128, 256, 512})
}

// BenchmarkGraphToThinWreath — E5 (Theorem 5.1).
func BenchmarkGraphToThinWreath(b *testing.B) {
	gen := func(n int) *Graph {
		g, err := RandomBoundedDegree(n, 4, n/2, int64(n))
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	// Sizes stop at 384: DESIGN.md § "Known deviations and failures".
	benchAlgo(b, GraphToThinWreath, gen, []int{128, 256, 384})
}

// BenchmarkLowerBoundTime — E6 (Lemma 6.1): rounds stay ≥ log2 n on
// the spanning line for every algorithm.
func BenchmarkLowerBoundTime(b *testing.B) {
	for _, algo := range []Algorithm{GraphToStar, CliqueFormation} {
		b.Run(algo.String(), func(b *testing.B) {
			n := 1024
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := Run(algo, Line(n))
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(bits.Len(uint(n))), "log2n_floor")
		})
	}
}

// BenchmarkCentralizedLine — E7 (Lemmas D.3/D.4): Θ(n) activations.
func BenchmarkCentralizedLine(b *testing.B) {
	for _, n := range []int{1024, 16384, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var act, rounds int
			for i := 0; i < b.N; i++ {
				res, err := baseline.CutInHalfLine(n)
				if err != nil {
					b.Fatal(err)
				}
				act, rounds = res.Metrics.TotalActivations, res.Metrics.Rounds
			}
			b.ReportMetric(float64(act)/float64(n), "act/n")
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkCentralizedEuler — E8 (Theorem 6.3): Θ(n) activations on
// arbitrary connected graphs.
func BenchmarkCentralizedEuler(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := RandomConnected(n, n, int64(n))
			var res *baseline.CentralizedResult
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = baseline.EulerTourStrategy(g); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Metrics.TotalActivations)/float64(n), "act/n")
			b.ReportMetric(float64(res.History.CurrentView().Eccentricity(res.Root)), "finalDepth")
		})
	}
}

// BenchmarkDistributedActivations — E9 (Theorem 6.4): the Ω(n log n)
// vs Θ(n) separation on the increasing-order ring.
func BenchmarkDistributedActivations(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := Ring(n)
			var dist, cent int
			for i := 0; i < b.N; i++ {
				res, err := Run(GraphToStar, g)
				if err != nil {
					b.Fatal(err)
				}
				c, err := baseline.EulerTourStrategy(g)
				if err != nil {
					b.Fatal(err)
				}
				dist, cent = res.Metrics.TotalActivations, c.Metrics.TotalActivations
			}
			b.ReportMetric(float64(dist)/float64(cent), "dist/cent")
			b.ReportMetric(float64(dist)/(float64(n)*float64(bits.Len(uint(n)))), "distAct/nlogn")
		})
	}
}

// BenchmarkClique — E10 (§1.2): Θ(n²) edge complexity.
func BenchmarkClique(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var act int
			for i := 0; i < b.N; i++ {
				res, err := Run(CliqueFormation, Line(n))
				if err != nil {
					b.Fatal(err)
				}
				act = res.Metrics.TotalActivations
			}
			b.ReportMetric(float64(act)/float64(n*n), "act/n2")
		})
	}
}

// BenchmarkFlooding — E11 (§1.2): Θ(diameter) time, zero activations.
func BenchmarkFlooding(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := Run(Flooding, Line(n))
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(n), "rounds/n")
		})
	}
}

// BenchmarkCompose — E12 (§1.3): transform + disseminate vs flooding.
func BenchmarkCompose(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				g := Line(n)
				star, err := Run(GraphToStar, g)
				if err != nil {
					b.Fatal(err)
				}
				dissem, err := Run(Flooding, star.FinalGraph())
				if err != nil {
					b.Fatal(err)
				}
				flood, err := Run(Flooding, g)
				if err != nil {
					b.Fatal(err)
				}
				speedup = float64(flood.Rounds) / float64(star.Rounds+dissem.Rounds)
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// BenchmarkPhases — E13 (Lemmas 3.6/3.7): GraphToStar phase count.
func BenchmarkPhases(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := Run(GraphToStar, Line(n))
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Rounds
			}
			phases := (rounds + 7) / 8
			b.ReportMetric(float64(phases), "phases")
			b.ReportMetric(float64(phases)/float64(bits.Len(uint(n))), "phases/logn")
		})
	}
}

// BenchmarkTradeoffTable regenerates the §1.3 headline comparison.
func BenchmarkTradeoffTable(b *testing.B) {
	var tab fmt.Stringer
	for i := 0; i < b.N; i++ {
		t, err := expt.TradeoffTable(256)
		if err != nil {
			b.Fatal(err)
		}
		tab = t
	}
	_ = tab
}

// benchRoundMachine is the round-loop microbenchmark workload: every
// node broadcasts a small payload each round and halts after a fixed
// number of rounds. It isolates the engine's per-round overhead
// (message fan-out, delivery, intent merging) from algorithm logic.
type benchRoundMachine struct {
	rounds int
}

func (m *benchRoundMachine) Init(ctx *sim.Context) {}

func (m *benchRoundMachine) Send(ctx *sim.Context) {
	ctx.Broadcast(ctx.Round())
}

func (m *benchRoundMachine) Receive(ctx *sim.Context, inbox []sim.Message) {
	if ctx.Round() >= m.rounds {
		ctx.SetStatus(sim.StatusFollower)
		ctx.Halt()
	}
}

// benchChurnMachine adds edge churn on a ring: every node alternates
// between activating and deactivating the chord {u, u+2} (legal under
// the distance-2 rule via the common neighbor u+1), so every round
// pushes Θ(n) intents through temporal.History.Apply.
type benchChurnMachine struct {
	rounds int
	n      int
}

func (m *benchChurnMachine) Init(ctx *sim.Context) {}

func (m *benchChurnMachine) Send(ctx *sim.Context) {
	ctx.Broadcast(ctx.Round())
}

func (m *benchChurnMachine) Receive(ctx *sim.Context, inbox []sim.Message) {
	chord := graph.ID((int(ctx.ID()) + 2) % m.n)
	if ctx.Round()%2 == 1 {
		ctx.Activate(chord)
	} else {
		ctx.Deactivate(chord)
	}
	if ctx.Round() >= m.rounds {
		ctx.SetStatus(sim.StatusFollower)
		ctx.Halt()
	}
}

// benchRound shares the round-loop benchmark shape: run a fixed-length
// execution per iteration and report per-round cost next to -benchmem's
// per-op allocation figures.
func benchRound(b *testing.B, sizes []int, factory func(n int) sim.Factory) {
	b.Helper()
	const rounds = 16
	for _, n := range sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.Ring(n)
			f := factory(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(g, f)
				if err != nil {
					b.Fatal(err)
				}
				if res.Rounds != rounds {
					b.Fatalf("rounds = %d, want %d", res.Rounds, rounds)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds), "ns/round")
		})
	}
}

// benchRunnerCells runs reqs in order on one warm expt.Runner (the
// recycling engine every sweep cell uses) per iteration and reports the
// time per node-round over all of them, like ./benchmark's library
// workloads. Every run must elect the maximum ID.
func benchRunnerCells(b *testing.B, reqs ...expt.Request) {
	b.Helper()
	r := expt.NewRunner()
	defer r.Close()
	for _, req := range reqs { // warm the engine and the arena
		if _, err := r.Execute(req); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	nodeRounds := 0
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			out, err := r.Execute(req)
			if err != nil {
				b.Fatal(err)
			}
			if !out.LeaderOK {
				b.Fatalf("%s/%s/n=%d: maximum ID not elected", req.Algorithm, req.Workload, req.N)
			}
			nodeRounds += out.N * out.Rounds
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodeRounds), "ns/node-round")
}

// BenchmarkGraphToStarLine65536 is the round loop at scale as a go
// test row: graph-to-star on a 2^16-node line, ./benchmark's star-large
// cell.
func BenchmarkGraphToStarLine65536(b *testing.B) {
	benchRunnerCells(b, expt.Request{Algorithm: expt.AlgoStar, Workload: "line", N: 1 << 16, Seed: 1})
}

// BenchmarkFreshRunnerStarLine4096 reports what a fresh Runner
// allocates for its first graph-to-star/line/4096 run, per node: the
// per-node footprint (DESIGN.md § "Per-node footprint") that internal/expt's
// TestFreshRunnerFirstRunBytes bounds.
func BenchmarkFreshRunnerStarLine4096(b *testing.B) {
	req := expt.Request{Algorithm: expt.AlgoStar, Workload: "line", N: 4096, Seed: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		r := expt.NewRunner()
		if _, err := r.Execute(req); err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*req.N), "B/node")
}

// BenchmarkFloodLine512 is ./benchmark's flood-line cell: every node
// broadcasts its whole known set every round, zero edge edits.
func BenchmarkFloodLine512(b *testing.B) {
	benchRunnerCells(b, expt.Request{Algorithm: expt.AlgoFlood, Workload: "line", N: 512, Seed: 1})
}

// BenchmarkWreathGridCells is one seed of ./benchmark's wreath-grid at
// n = 256: wreath and thinwreath on line, ring and random-tree, the
// §4/§5 machines that broadcast their state every round.
func BenchmarkWreathGridCells(b *testing.B) {
	var reqs []expt.Request
	for _, algo := range []string{expt.AlgoWreath, expt.AlgoThinWreath} {
		for _, family := range []string{"line", "ring", "random-tree"} {
			reqs = append(reqs, expt.Request{Algorithm: algo, Workload: family, N: 256, Seed: 1})
		}
	}
	benchRunnerCells(b, reqs...)
}

// BenchmarkEngineReuse measures the PR 3 headline: many runs through
// one reused Engine versus back-to-back sim.Run. Same workload, same
// semantics; the engine variant reuses contexts, inboxes, history
// scratch and intent buffer across runs, so allocs/op (one
// op = one full run) drop by well over 5×.
func BenchmarkEngineReuse(b *testing.B) {
	const rounds = 16
	for _, n := range []int{256, 1024} {
		g := graph.Ring(n)
		f := func(id graph.ID, env sim.Env) sim.Machine {
			return &benchRoundMachine{rounds: rounds}
		}
		b.Run(fmt.Sprintf("engine/n=%d", n), func(b *testing.B) {
			e := sim.NewEngine()
			defer e.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := e.Reset(g, f); err != nil {
					b.Fatal(err)
				}
				res, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				if res.Rounds != rounds {
					b.Fatalf("rounds = %d", res.Rounds)
				}
			}
		})
		b.Run(fmt.Sprintf("run/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(g, f)
				if err != nil {
					b.Fatal(err)
				}
				if res.Rounds != rounds {
					b.Fatalf("rounds = %d", res.Rounds)
				}
			}
		})
	}
}

// BenchmarkRoundLoop measures the engine's message-only round loop:
// n broadcasting nodes on a ring, no edge reconfiguration.
func BenchmarkRoundLoop(b *testing.B) {
	benchRound(b, []int{256, 1024, 4096}, func(n int) sim.Factory {
		return func(id graph.ID, env sim.Env) sim.Machine {
			return &benchRoundMachine{rounds: 16}
		}
	})
}

// BenchmarkRoundLoopChurn measures the full round loop including Θ(n)
// edge activations/deactivations per round through temporal.Apply.
func BenchmarkRoundLoopChurn(b *testing.B) {
	benchRound(b, []int{256, 1024, 4096}, func(n int) sim.Factory {
		return func(id graph.ID, env sim.Env) sim.Machine {
			return &benchChurnMachine{rounds: 16, n: n}
		}
	})
}

// BenchmarkWreathAdmissionAblation sweeps the ThinWreath matchmaker's
// admission cap (DESIGN.md § "Known deviations and failures"): tighter
// admission bounds per-phase merge fan-in, trading rounds for smaller
// splice groups.
func BenchmarkWreathAdmissionAblation(b *testing.B) {
	n := 128
	g, err := RandomBoundedDegree(n, 4, n/2, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, cap := range []int{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			var rounds, act int
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(g, core.NewWreathFactoryOpts(core.WreathOptions{AdmitCap: cap}),
					sim.WithMaxRounds(core.WreathMaxRounds(n, 2)))
				if err != nil {
					b.Fatal(err)
				}
				rounds, act = res.Rounds, res.Metrics.TotalActivations
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(act), "activations")
		})
	}
}

// BenchmarkWreathBranchingAblation sweeps the gadget arity: the §5
// lever. Wider trees are shallower (faster intra-committee
// communication) at higher degree.
func BenchmarkWreathBranchingAblation(b *testing.B) {
	n := 128
	g := Line(n)
	for _, br := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("b=%d", br), func(b *testing.B) {
			var depth, deg int
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(g, core.NewWreathFactoryOpts(core.WreathOptions{Branching: br}),
					sim.WithMaxRounds(core.WreathMaxRounds(n, br)))
				if err != nil {
					b.Fatal(err)
				}
				leader, _ := res.Leader()
				depth = res.History.CurrentClone().Eccentricity(leader)
				deg = res.Metrics.MaxActivatedDegree
			}
			b.ReportMetric(float64(depth), "finalDepth")
			b.ReportMetric(float64(deg), "maxActDegree")
		})
	}
}
