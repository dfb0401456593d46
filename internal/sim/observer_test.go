package sim

import (
	"testing"

	"adnet/internal/graph"
)

func TestRunObserverFiresOncePerRun(t *testing.T) {
	t.Parallel()
	var got []RunSummary
	res, err := Run(graph.Line(10), newFloodFactory(9),
		WithRunObserver(func(s RunSummary) { got = append(got, s) }))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("observer fired %d times, want 1", len(got))
	}
	s := got[0]
	if s.Rounds != res.Rounds {
		t.Errorf("Rounds = %d, want %d", s.Rounds, res.Rounds)
	}
	if s.TotalMessages != res.TotalMessages {
		t.Errorf("TotalMessages = %d, want %d", s.TotalMessages, res.TotalMessages)
	}
	if s.Duration <= 0 {
		t.Errorf("Duration = %v, want > 0", s.Duration)
	}
}

func TestRunObserverFiresOnFailure(t *testing.T) {
	t.Parallel()
	var got []RunSummary
	// Never-halting machines hit the round limit; the observer still
	// sees the partial run.
	_, err := Run(graph.Line(4), newFloodFactory(1<<30),
		WithMaxRounds(5),
		WithRunObserver(func(s RunSummary) { got = append(got, s) }))
	if kindOf(err) != RoundLimit {
		t.Fatalf("err = %v, want a round-limit failure", err)
	}
	if len(got) != 1 || got[0].Rounds != 5 {
		t.Fatalf("observer = %+v, want one summary with Rounds=5", got)
	}
}

func TestRunObserverAcrossEngineReuse(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	defer e.Close()
	fired := 0
	obs := WithRunObserver(func(RunSummary) { fired++ })
	for i := 0; i < 3; i++ {
		runEngine(t, e, graph.Line(6), newFloodFactory(5), obs)
	}
	if fired != 3 {
		t.Fatalf("observer fired %d times over 3 runs, want 3", fired)
	}
	// A run without the option must not inherit the previous observer.
	runEngine(t, e, graph.Line(6), newFloodFactory(5))
	if fired != 3 {
		t.Fatalf("observer leaked across Reset: fired %d", fired)
	}
}
