package sim

import (
	"errors"
	"testing"

	"adnet/internal/graph"
	"adnet/internal/temporal"
)

// kindOf is the kind of err's *Failure, or "" when it carries none.
func kindOf(err error) FailureKind {
	var f *Failure
	if !errors.As(err, &f) {
		return ""
	}
	return f.Kind
}

// TestFailureKinds drives every engine-built failure kind through Run
// and checks the value — kind, round, node, peer — and its text, which
// is what the error sites printed before failures became values.
func TestFailureKinds(t *testing.T) {
	t.Parallel()
	closed := make(chan struct{})
	close(closed)
	builds := 0
	rebootsToNil := func(id graph.ID, env Env) Machine {
		if builds++; builds > 3 {
			return nil
		}
		return &floodMachine{best: id, rounds: 1000}
	}
	crashThenReboot := &scriptEnv{steps: map[int]func(*EnvEdits){
		1: func(e *EnvEdits) { e.Crash = append(e.Crash, 1) },
		2: func(e *EnvEdits) { e.Restart, e.Reboot = append(e.Restart, 1), true },
	}}
	envSelfLoop := &scriptEnv{steps: map[int]func(*EnvEdits){
		1: func(e *EnvEdits) { e.Activate = append(e.Activate, graph.Edge{A: 1, B: 1}) },
	}}
	machine := func(m Machine) Factory { return func(graph.ID, Env) Machine { return m } }
	for _, tc := range []struct {
		name       string
		gs         *graph.Graph
		factory    Factory
		opts       []Option
		want       Failure
		text       string
		violation  bool // the failure unwraps to a *temporal.Violation
		isCanceled bool
	}{
		{"round limit", graph.Line(5), newFloodFactory(1000), []Option{WithMaxRounds(3)},
			Failure{Kind: RoundLimit, Round: 3}, "sim: round limit exceeded before termination (limit 3)", false, false},
		{"disconnected", graph.Line(4), machine(disconnector{}), []Option{WithConnectivityCheck()},
			Failure{Kind: Disconnected, Round: 1}, "sim: active graph disconnected after round 1", false, false},
		{"canceled", graph.Line(4), newFloodFactory(1000), []Option{WithCancel(closed)},
			Failure{Kind: Canceled}, "sim: execution canceled after round 0", false, true},
		{"non-neighbor send", graph.Line(8), machine(nonNeighborSender{}), nil,
			Failure{Kind: NonNeighborSend, Round: 3, Node: 2, Peer: 7}, "sim: round 3: node 2 sent to non-neighbor 7", false, false},
		{"distance-2 violation", graph.Line(4), machine(badActivator{}), nil,
			Failure{Kind: ModelViolation, Round: 1, Node: 0, Peer: 3},
			"temporal: round 1: illegal activate of {0,3}: no common active neighbor (distance-2 rule)", true, false},
		{"self-loop intent", graph.Line(8), machine(phaseFailer{phase: "receive", round: 3, nodes: []graph.ID{5, 2, 6}}), nil,
			Failure{Kind: ModelViolation, Round: 3, Node: 2, Peer: 2, Detail: "activated a self-loop"}, "sim: node 2 activated a self-loop", false, false},
		{"environment self-loop", graph.Ring(3), newFloodFactory(1000), []Option{WithEnvironment(envSelfLoop)},
			Failure{Kind: EnvironmentRefused, Round: 1}, "temporal: round 1: environment activation of self-loop {1,1}", false, false},
		{"machine panic", graph.Ring(3), func(graph.ID, Env) Machine { return &panicMachine{trigger: 3, rounds: 6} },
			[]Option{WithEnvironment(&scriptEnv{})},
			Failure{Kind: MachinePanic, Round: 3, Node: 1, Detail: "invariant broken"},
			"sim: round 3: node 1 panicked under environment perturbation: invariant broken", false, false},
		{"machine panic with an empty value", graph.Ring(3), func(graph.ID, Env) Machine { return &blankPanicMachine{panicMachine{trigger: 3, rounds: 6}} },
			[]Option{WithEnvironment(&scriptEnv{})},
			Failure{Kind: MachinePanic, Round: 3, Node: 1},
			"sim: round 3: node 1 panicked under environment perturbation: ", false, false},
		{"nil machine on reboot", graph.Ring(3), rebootsToNil, []Option{WithEnvironment(crashThenReboot)},
			Failure{Kind: MachinePanic, Round: 2, Node: 1}, "sim: round 2: factory returned nil machine rebooting node 1", false, false},
	} {
		res, err := Run(tc.gs, tc.factory, tc.opts...)
		var f *Failure
		if !errors.As(err, &f) {
			t.Errorf("%s: err = %v, want a *Failure", tc.name, err)
			continue
		}
		got := *f
		got.Err = nil
		if got != tc.want {
			t.Errorf("%s: failure %+v, want %+v", tc.name, got, tc.want)
		}
		if err.Error() != tc.text {
			t.Errorf("%s: text %q, want %q", tc.name, err.Error(), tc.text)
		}
		var v *temporal.Violation
		if errors.As(err, &v) != tc.violation || errors.Is(err, ErrCanceled) != tc.isCanceled {
			t.Errorf("%s: unwraps to a violation %t, to ErrCanceled %t", tc.name, !tc.violation, !tc.isCanceled)
		}
		if res == nil || res.Rounds != f.Round {
			t.Errorf("%s: partial result %v, want one of %d rounds", tc.name, res, f.Round)
		}
	}
}

// blankPanicMachine is a panicMachine whose panic value renders empty.
type blankPanicMachine struct{ panicMachine }

func (m *blankPanicMachine) Send(ctx *Context) {
	if ctx.ID() == 1 && ctx.Round() == m.trigger {
		panic("")
	}
}
