package sim

import (
	"errors"
	"testing"

	"adnet/internal/graph"
)

// The round limit aborts the run, but the partial Result must still
// report the messages delivered up to that point (the flood machine
// broadcasts every round, so three rounds on a 5-line deliver 3·8).
func TestErrorResultKeepsMessageCounters(t *testing.T) {
	t.Parallel()
	res, err := Run(graph.Line(5), newFloodFactory(1000), WithMaxRounds(3))
	if kindOf(err) != RoundLimit {
		t.Fatalf("want a round-limit failure, got %v", err)
	}
	if res == nil {
		t.Fatal("round-limit failure must return the partial result")
	}
	// A line of 5 has 4 edges; a broadcast round delivers 2 messages
	// per edge.
	if want := 3 * 8; res.TotalMessages != want {
		t.Errorf("TotalMessages = %d, want %d", res.TotalMessages, want)
	}
	if want := 8; res.MaxMessagesPerRound != want {
		t.Errorf("MaxMessagesPerRound = %d, want %d", res.MaxMessagesPerRound, want)
	}
}

func TestModelViolationKeepsMessageCounters(t *testing.T) {
	t.Parallel()
	// badSender broadcasts nothing; pair flood traffic with a
	// violation on round 3 via a wrapper machine.
	factory := func(id graph.ID, env Env) Machine {
		return &violateLater{flood: &floodMachine{best: id, rounds: 1000}}
	}
	res, err := Run(graph.Line(4), factory)
	if err == nil {
		t.Fatal("want model-violation error")
	}
	if res == nil || res.TotalMessages == 0 {
		t.Fatalf("partial result must keep message counters, got %+v", res)
	}
}

type violateLater struct {
	flood *floodMachine
}

func (m *violateLater) Init(ctx *Context) { m.flood.Init(ctx) }
func (m *violateLater) Send(ctx *Context) { m.flood.Send(ctx) }
func (m *violateLater) Receive(ctx *Context, inbox []Message) {
	if ctx.Round() >= 3 && ctx.ID() == 0 {
		// Distance-2 violation: node 0 on a line cannot reach node 3.
		ctx.Activate(3)
		return
	}
	m.flood.Receive(ctx, inbox)
}

func TestWithCancelAbortsBetweenRounds(t *testing.T) {
	t.Parallel()
	done := make(chan struct{})
	stopAfter := 4
	var rounds int
	res, err := Run(graph.Line(6), newFloodFactory(1000),
		WithRoundHook(func(ev RoundEvent) {
			rounds = ev.Round
			if ev.Round == stopAfter {
				close(done)
			}
		}),
		WithCancel(done))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if res == nil {
		t.Fatal("canceled run must return the partial result")
	}
	if rounds != stopAfter {
		t.Errorf("hook saw %d rounds, want %d", rounds, stopAfter)
	}
	if res.Rounds != stopAfter {
		t.Errorf("Rounds = %d, want %d", res.Rounds, stopAfter)
	}
	if res.TotalMessages == 0 {
		t.Error("canceled run must keep message counters")
	}
}

func TestWithCancelNeverClosedRunsToCompletion(t *testing.T) {
	t.Parallel()
	done := make(chan struct{})
	res, err := Run(graph.Line(5), newFloodFactory(9), WithCancel(done))
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, ok := res.Leader(); !ok {
		t.Error("expected a unique leader")
	}
}
