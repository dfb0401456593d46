package expt

import (
	"testing"

	"adnet/internal/graph"
	"adnet/internal/sim"
)

func TestWorkloadUnknownName(t *testing.T) {
	t.Parallel()
	if _, err := Workload("no-such-family", 8, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestWorkloadsListBuildsConnectedGraphs(t *testing.T) {
	t.Parallel()
	for _, name := range Workloads() {
		g, err := Workload(name, 16, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if g.NumNodes() != 16 {
			t.Errorf("%s: %d nodes, want 16", name, g.NumNodes())
		}
		if !g.IsConnected() {
			t.Errorf("%s: disconnected initial graph", name)
		}
	}
}

func TestWorkloadTinySizes(t *testing.T) {
	t.Parallel()
	// Every family rejects n < 2 uniformly at dispatch, before any
	// generator runs, and accepts the minimum size n=2.
	for _, name := range Workloads() {
		for _, n := range []int{-1, 0, 1} {
			if _, err := Workload(name, n, 1); err == nil {
				t.Errorf("%s n=%d: accepted, want error", name, n)
			}
		}
		g, err := Workload(name, 2, 1)
		if err != nil {
			t.Errorf("%s n=2: %v", name, err)
			continue
		}
		if g.NumNodes() != 2 {
			t.Errorf("%s n=2: got %d nodes", name, g.NumNodes())
		}
		if !g.IsConnected() {
			t.Errorf("%s n=2: disconnected", name)
		}
	}
}

func TestRunAlgorithmRejectsBadInput(t *testing.T) {
	t.Parallel()
	r := NewRunner()
	defer r.Close()
	if _, err := r.RunAlgorithm("no-such-algo", graph.Line(4)); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := r.RunAlgorithm(AlgoStar, nil); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := r.RunAlgorithm(AlgoStar, graph.New()); err == nil {
		t.Error("empty graph accepted")
	}
	if _, err := Execute(Request{Algorithm: AlgoStar, Workload: "no-such-family", N: 8}); err == nil {
		t.Error("Execute passed through an unknown workload")
	}
	if _, err := Execute(Request{Algorithm: "no-such-algo", Workload: "line", N: 8}); err == nil {
		t.Error("Execute passed through an unknown algorithm")
	}
}

func TestRunAlgorithmSingletonGraph(t *testing.T) {
	t.Parallel()
	r := NewRunner()
	defer r.Close()
	for _, name := range Algorithms() {
		out, err := r.RunAlgorithm(name, graph.Line(1))
		if err != nil {
			t.Errorf("%s on singleton: %v", name, err)
			continue
		}
		if out.N != 1 || !out.LeaderOK {
			t.Errorf("%s on singleton: %+v", name, out)
		}
	}
}

// Every published algorithm name must round-trip through RunAlgorithm
// on a small line and elect the max-UID leader.
func TestEveryAlgorithmRunsOnSmallLine(t *testing.T) {
	t.Parallel()
	for _, name := range Algorithms() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r := NewRunner()
			defer r.Close()
			out, err := r.RunAlgorithm(name, graph.Line(16))
			if err != nil {
				t.Fatal(err)
			}
			if out.N != 16 {
				t.Errorf("N = %d, want 16", out.N)
			}
			if out.Rounds <= 0 {
				t.Errorf("Rounds = %d, want > 0", out.Rounds)
			}
			if !out.LeaderOK {
				t.Error("no unique correct leader")
			}
		})
	}
}

func TestExecuteMatchesManualComposition(t *testing.T) {
	t.Parallel()
	req := Request{Algorithm: AlgoStar, Workload: "random-tree", N: 48, Seed: 11}
	got, err := Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Workload(req.Workload, req.N, req.Seed)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	defer r.Close()
	want, err := r.RunAlgorithm(req.Algorithm, g)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Execute = %+v, manual = %+v", got, want)
	}
}

func TestExecuteExtraSimOptionsApply(t *testing.T) {
	t.Parallel()
	// A 1-round cap cannot complete GraphToStar on a 32-line; the
	// option must override the algorithm default.
	_, err := Execute(Request{
		Algorithm: AlgoStar, Workload: "line", N: 32, Seed: 1,
		SimOpts: []sim.Option{sim.WithMaxRounds(1)},
	})
	if failureKind(err) != sim.RoundLimit {
		t.Fatalf("want a round-limit failure through Execute, got %v", err)
	}

	var rounds int
	out, err := Execute(Request{
		Algorithm: AlgoStar, Workload: "line", N: 32, Seed: 1,
		SimOpts: []sim.Option{sim.WithRoundHook(func(ev sim.RoundEvent) { rounds = ev.Round })},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds != out.Rounds {
		t.Fatalf("hook saw %d rounds, outcome ran %d", rounds, out.Rounds)
	}
}
