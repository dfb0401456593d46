package expt

import (
	"errors"
	"testing"

	"adnet/internal/dynamics"
	"adnet/internal/sim"
)

// failureKind is the kind of err's *sim.Failure, or "" when it carries
// none.
func failureKind(err error) sim.FailureKind {
	var f *sim.Failure
	if !errors.As(err, &f) {
		return ""
	}
	return f.Kind
}

// TestFailureFixtures runs one known failing cell per engine failure
// kind through Runner.Execute and through ExecuteSweep, and checks the
// *sim.Failure each returns — kind, round, node and peer — its text,
// which is byte for byte what the run reported before failures were
// values, and the partial outcome: a failed cell keeps the rounds it
// reached, with LeaderOK false.
func TestFailureFixtures(t *testing.T) {
	t.Parallel()
	closed := make(chan struct{})
	close(closed)
	for _, tc := range []struct {
		cell Cell
		opts []sim.Option
		want sim.Failure
		text string
	}{
		{Cell{Algorithm: AlgoWreath, Workload: "small-world", N: 128, Seed: 1}, nil,
			sim.Failure{Kind: sim.NonNeighborSend, Round: 599, Node: 33, Peer: 116},
			"expt: graph-to-wreath on n=128: sim: round 599: node 33 sent to non-neighbor 116"},
		{Cell{Algorithm: AlgoWreath, Workload: "bounded-degree", N: 96, Seed: 33}, nil,
			sim.Failure{Kind: sim.NonNeighborSend, Round: 551, Node: 57, Peer: 58},
			"expt: graph-to-wreath on n=96: sim: round 551: node 57 sent to non-neighbor 58"},
		{Cell{Algorithm: AlgoThinWreath, Workload: "power-law", N: 256, Seed: 3}, nil,
			sim.Failure{Kind: sim.NonNeighborSend, Round: 1087, Node: 35, Peer: 75},
			"expt: graph-to-thinwreath on n=256: sim: round 1087: node 35 sent to non-neighbor 75"},
		{Cell{Algorithm: AlgoStar, Workload: "power-law", N: 1024, Seed: 9}, nil,
			sim.Failure{Kind: sim.ModelViolation, Round: 45, Node: 548, Peer: 1021},
			"expt: graph-to-star on n=1024: temporal: round 45: illegal activate of {548,1021}: no common active neighbor (distance-2 rule)"},
		{Cell{Algorithm: AlgoWreath, Workload: "bounded-degree", N: 1024, Seed: 1}, []sim.Option{sim.WithConnectivityCheck()},
			sim.Failure{Kind: sim.Disconnected, Round: 861},
			"expt: graph-to-wreath on n=1024: sim: active graph disconnected after round 861"},
		{Cell{Algorithm: AlgoWreath, Workload: "line", N: 32, Seed: 1, Dynamics: &dynamics.Spec{Class: dynamics.ClassCrash}}, nil,
			sim.Failure{Kind: sim.MachinePanic, Round: 210, Node: 29, Detail: "runtime error: index out of range [0] with length 0"},
			"expt: graph-to-wreath on n=32: sim: round 210: node 29 panicked under environment perturbation: runtime error: index out of range [0] with length 0"},
		{Cell{Algorithm: AlgoStar, Workload: "line", N: 32, Seed: 1, MaxRounds: 5}, nil,
			sim.Failure{Kind: sim.RoundLimit, Round: 5},
			"expt: graph-to-star on n=32: sim: round limit exceeded before termination (limit 5)"},
		{Cell{Algorithm: AlgoStar, Workload: "line", N: 32, Seed: 1}, []sim.Option{sim.WithCancel(closed)},
			sim.Failure{Kind: sim.Canceled},
			"expt: graph-to-star on n=32: sim: execution canceled after round 0"},
	} {
		name := tc.cell.Key()
		check := func(path string, out Outcome, err error) {
			var f *sim.Failure
			if !errors.As(err, &f) {
				t.Errorf("%s via %s: err = %v, want a *sim.Failure", name, path, err)
				return
			}
			got := *f
			got.Err = nil
			if got != tc.want {
				t.Errorf("%s via %s: failure %+v, want %+v", name, path, got, tc.want)
			}
			if err.Error() != tc.text {
				t.Errorf("%s via %s: text %q, want %q", name, path, err.Error(), tc.text)
			}
			if out.N != tc.cell.N || out.Rounds != f.Round || out.LeaderOK {
				t.Errorf("%s via %s: partial outcome %+v, want n=%d after %d rounds, no leader", name, path, out, tc.cell.N, f.Round)
			}
		}
		r := NewRunner()
		req := tc.cell.Request()
		req.SimOpts = append(req.SimOpts, tc.opts...)
		out, err := r.Execute(req)
		r.Close()
		check("Execute", out, err)
		results, err := ExecuteSweep(tc.cell.Grid(), SweepOptions{Workers: 1, SimOpts: tc.opts})
		if err != nil {
			t.Fatalf("%s: ExecuteSweep: %v", name, err)
		}
		check("ExecuteSweep", results[0].Outcome, results[0].Err)
	}
}

// TestFailedRunKeepsItsDisruption: a run that fails under an
// environment reports the disruption it absorbed before failing — the
// environment's edits and the engine's crashes and restarts — and its
// activations, with no walk of the failed graph.
func TestFailedRunKeepsItsDisruption(t *testing.T) {
	t.Parallel()
	req := Cell{Algorithm: AlgoWreath, Workload: "line", N: 32, Seed: 1, Dynamics: &dynamics.Spec{Class: dynamics.ClassCrash}}.Request()
	out, err := Execute(req)
	if failureKind(err) != sim.MachinePanic {
		t.Fatalf("err = %v, want a machine panic", err)
	}
	if out.Crashes == 0 || out.Restarts == 0 || out.TotalActivations == 0 || out.TotalMessages == 0 {
		t.Fatalf("partial outcome %+v lost the run's counts", out)
	}
	if out.FinalDiameter != 0 || out.FinalDepth != 0 {
		t.Fatalf("partial outcome %+v measured the failed graph", out)
	}
}
