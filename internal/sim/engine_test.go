package sim

import (
	"reflect"
	"runtime"
	"testing"

	"adnet/internal/graph"
	"adnet/internal/temporal"
)

// deltaLog records a run's per-round record: every RoundDelta, all
// four lists copied (the engine reuses them the next round). Empty
// lists are stored as nil so logs compare with reflect.DeepEqual.
type deltaLog []temporal.RoundDelta

func (l *deltaLog) record() Option {
	return WithDeltaHook(func(d temporal.RoundDelta) {
		*l = append(*l, temporal.RoundDelta{
			Round:         d.Round,
			Activate:      append([]int32(nil), d.Activate...),
			Deactivate:    append([]int32(nil), d.Deactivate...),
			EnvActivate:   append([]int32(nil), d.EnvActivate...),
			EnvDeactivate: append([]int32(nil), d.EnvDeactivate...),
		})
	})
}

// runEngine drives one Reset+Run cycle on e and fails the test on any
// error.
func runEngine(t *testing.T, e *Engine, gs *graph.Graph, f Factory, opts ...Option) *Result {
	t.Helper()
	if err := e.Reset(gs, f, opts...); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// summary extracts the Result fields that remain comparable after the
// engine is reset (everything except the shared History pointer and
// machine identities).
type resultSummary struct {
	Rounds              int
	Metrics             interface{}
	Statuses            map[graph.ID]Status
	TotalMessages       int
	MaxMessagesPerRound int
}

func summarize(r *Result) resultSummary {
	statuses := make(map[graph.ID]Status)
	for nd := range r.Nodes {
		statuses[nd.ID] = nd.Status
	}
	return resultSummary{
		Rounds:              r.Rounds,
		Metrics:             r.Metrics,
		Statuses:            statuses,
		TotalMessages:       r.TotalMessages,
		MaxMessagesPerRound: r.MaxMessagesPerRound,
	}
}

// TestEngineReuseMatchesFreshRuns reuses one engine across runs of
// different algorithms, sizes and graph shapes — growing and shrinking
// — and checks each run against a fresh sim.Run. Any state leaking
// between runs (contexts, inboxes, history accounting, intent
// buffers) would diverge.
func TestEngineReuseMatchesFreshRuns(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	defer e.Close()

	steps := []struct {
		name string
		gs   func() *graph.Graph
		f    Factory
	}{
		{"flood-line-20", func() *graph.Graph { return graph.Line(20) }, newFloodFactory(19)},
		{"clique-line-17", func() *graph.Graph { return graph.Line(17) },
			func(graph.ID, Env) Machine { return cliqueMachine{} }},
		{"flood-star-50", func() *graph.Graph { return graph.Star(50) }, newFloodFactory(2)},
		{"flood-line-5", func() *graph.Graph { return graph.Line(5) }, newFloodFactory(4)},
		{"clique-ring-12", func() *graph.Graph { return graph.Ring(12) },
			func(graph.ID, Env) Machine { return cliqueMachine{} }},
	}
	for _, st := range steps {
		reused := runEngine(t, e, st.gs(), st.f)
		fresh, err := Run(st.gs(), st.f)
		if err != nil {
			t.Fatalf("%s fresh: %v", st.name, err)
		}
		if !reflect.DeepEqual(summarize(reused), summarize(fresh)) {
			t.Errorf("%s: reused engine diverged\nreused %+v\nfresh  %+v",
				st.name, summarize(reused), summarize(fresh))
		}
	}
}

// TestEngineBackToBackIdenticalRuns checks that repeating the same
// spec on one engine is bit-for-bit repeatable (no hidden state
// accumulates across Reset).
func TestEngineBackToBackIdenticalRuns(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	defer e.Close()
	f := func(graph.ID, Env) Machine { return cliqueMachine{} }
	first := summarize(runEngine(t, e, graph.Ring(24), f))
	for i := 0; i < 3; i++ {
		again := summarize(runEngine(t, e, graph.Ring(24), f))
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("repeat %d diverged:\nfirst %+v\nagain %+v", i, first, again)
		}
	}
}

// TestEngineRunRequiresReset pins the one-Run-per-Reset contract.
func TestEngineRunRequiresReset(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	defer e.Close()
	if _, err := e.Run(); err == nil {
		t.Fatal("Run before Reset succeeded")
	}
	runEngine(t, e, graph.Line(4), newFloodFactory(3))
	if _, err := e.Run(); err == nil {
		t.Fatal("second Run without Reset succeeded")
	}
}

// TestEnginePoolDeterminism runs the same workload across worker
// counts on reused engines and requires identical results, including
// the recorded deltas of every round.
func TestEnginePoolDeterminism(t *testing.T) {
	t.Parallel()
	g := graph.Ring(128)
	f := func(graph.ID, Env) Machine { return cliqueMachine{} }
	var base resultSummary
	var baseLog deltaLog
	for _, workers := range []int{1, 2, 3, runtime.GOMAXPROCS(0)} {
		e := NewEngine()
		// A second run on the same engine must also agree.
		for run := 0; run < 2; run++ {
			var log deltaLog
			got := summarize(runEngine(t, e, g, f, WithParallelism(workers), log.record()))
			if baseLog == nil {
				base, baseLog = got, log
				continue
			}
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("workers=%d diverged: %+v vs %+v", workers, base, got)
			}
			if len(log) != got.Rounds {
				t.Fatalf("workers=%d: %d deltas for %d rounds", workers, len(log), got.Rounds)
			}
			for i := range baseLog {
				if !reflect.DeepEqual(baseLog[i], log[i]) {
					t.Fatalf("workers=%d: delta of round %d diverged:\nwant %+v\ngot  %+v",
						workers, i+1, baseLog[i], log[i])
				}
			}
		}
		e.Close()
	}
}

// TestEngineResetScrubsShrunkState is a white-box check of the
// no-leak invariant: after shrinking to a smaller run, no machine,
// inbox message or outbox payload from the larger previous run stays
// reachable through reused backing arrays.
func TestEngineResetScrubsShrunkState(t *testing.T) {
	t.Parallel()
	e := NewEngine()
	defer e.Close()
	runEngine(t, e, graph.Star(64), newFloodFactory(2))
	runEngine(t, e, graph.Line(4), newFloodFactory(3))

	for _, m := range e.machines[4:cap(e.machines)] {
		if m != nil {
			t.Fatal("machine beyond the current size survived Reset")
		}
	}
	for _, c := range e.ctxs[4:cap(e.ctxs)] {
		for _, om := range c.outbox[:cap(c.outbox)] {
			if om.m.Payload != nil {
				t.Fatal("outbox payload beyond the current size survived Reset")
			}
		}
	}
	for _, ib := range e.inboxes[4:cap(e.inboxes)] {
		for _, m := range ib[:cap(ib)] {
			if m.Payload != nil {
				t.Fatal("inbox payload beyond the current size survived Reset")
			}
		}
	}
}

// TestEngineReuseAllocs verifies the headline win: running through a
// reused engine allocates far less than back-to-back sim.Run. The
// strict ≥5× figure is demonstrated by BenchmarkEngineReuse; here a
// conservative 2× floor keeps the property pinned under -race and
// noisy CI.
func TestEngineReuseAllocs(t *testing.T) {
	g := graph.Ring(256)
	f := newFloodFactory(8)

	e := NewEngine()
	defer e.Close()
	if err := e.Reset(g, f, WithParallelism(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	reused := testing.AllocsPerRun(10, func() {
		if err := e.Reset(g, f, WithParallelism(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(10, func() {
		if _, err := Run(g, f, WithParallelism(1)); err != nil {
			t.Fatal(err)
		}
	})
	if reused*2 > fresh {
		t.Errorf("engine reuse allocs = %.0f/run, fresh run = %.0f/run; want ≥2× fewer", reused, fresh)
	}
	t.Logf("allocs/run: reused engine %.0f, fresh sim.Run %.0f (%.1f×)", reused, fresh, fresh/reused)
}
