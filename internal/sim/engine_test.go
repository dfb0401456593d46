package sim

import (
	"reflect"
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

// TestEngineReuseDeltaDeterminism requires a reused engine — run
// again on the same spec, or after a different run — to reproduce a
// fresh engine's result, including the recorded delta of every round.
func TestEngineReuseDeltaDeterminism(t *testing.T) {
	t.Parallel()
	g := graph.Ring(128)
	f := func(graph.ID, Env) Machine { return cliqueMachine{} }
	run := func(e *Engine) (resultSummary, deltaLog) {
		var log deltaLog
		got := summarize(runEngine(t, e, g, f, log.record()))
		if len(log) != got.Rounds {
			t.Fatalf("%d deltas for %d rounds", len(log), got.Rounds)
		}
		return got, log
	}
	e := NewEngine()
	defer e.Close()
	base, baseLog := run(e)
	other := NewEngine()
	defer other.Close()
	runEngine(t, other, graph.Line(40), newFloodFactory(39))
	for _, c := range []struct {
		name string
		e    *Engine
	}{{"same engine again", e}, {"engine reused after another run", other}} {
		got, log := run(c.e)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("%s diverged: %+v vs %+v", c.name, base, got)
		}
		if !reflect.DeepEqual(baseLog, log) {
			t.Fatalf("%s: deltas diverged:\nwant %+v\ngot  %+v", c.name, baseLog, log)
		}
	}
}

// TestDefaultParallelismIsSequential pins WithParallelism as a no-op
// kept for compatibility: a run without the option and runs with any
// p yield byte-identical deltas, all stepped by the one goroutine.
func TestDefaultParallelismIsSequential(t *testing.T) {
	t.Parallel()
	var base deltaLog
	if _, err := Run(graph.Ring(1024), newFloodFactory(3), base.record()); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 1, 4, 64} {
		var log deltaLog
		if _, err := Run(graph.Ring(1024), newFloodFactory(3), WithParallelism(p), log.record()); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !reflect.DeepEqual(base, log) {
			t.Fatalf("p=%d: deltas diverged from the default run", p)
		}
	}
}

// TestEngineSummaryWorkersAndBusy checks the RunSummary the observer
// receives whatever WithParallelism asks for: a measured run reports
// its rounds, duration and messages, and the one-goroutine efficiency
// of 1; an unmeasured summary reports 0.
func TestEngineSummaryWorkersAndBusy(t *testing.T) {
	t.Parallel()
	for _, p := range []int{0, 1, 4, 64} {
		var got RunSummary
		res, err := Run(graph.Ring(1024), newFloodFactory(3), WithParallelism(p),
			WithRunObserver(func(s RunSummary) { got = s }))
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if got.Rounds != res.Rounds || got.TotalMessages != res.TotalMessages || got.Duration <= 0 {
			t.Fatalf("p=%d: summary %+v does not match result (rounds %d, messages %d)",
				p, got, res.Rounds, res.TotalMessages)
		}
		if eff := got.ParallelEfficiency(); eff != 1 {
			t.Fatalf("p=%d: ParallelEfficiency() = %v, want 1", p, eff)
		}
	}
	if eff := (RunSummary{}).ParallelEfficiency(); eff != 0 {
		t.Fatalf("unmeasured ParallelEfficiency() = %v, want 0", eff)
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
	if err := e.Reset(g, f); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	reused := testing.AllocsPerRun(10, func() {
		if err := e.Reset(g, f); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(10, func() {
		if _, err := Run(g, f); err != nil {
			t.Fatal(err)
		}
	})
	if reused*2 > fresh {
		t.Errorf("engine reuse allocs = %.0f/run, fresh run = %.0f/run; want ≥2× fewer", reused, fresh)
	}
	t.Logf("allocs/run: reused engine %.0f, fresh sim.Run %.0f (%.1f×)", reused, fresh, fresh/reused)
}

// recycleFlood is floodMachine plus the Recycler extension, counting
// how many times it was restored in place.
type recycleFlood struct {
	floodMachine
	recycles int
}

func (m *recycleFlood) Recycle(id graph.ID, _ Env) {
	m.best = id
	m.recycles++
}

// TestEngineMachineRecycling checks the in-place machine reuse path:
// with a matching key the engine restores the previous run's machines
// (same pointers, correct results); a changed or absent key rebuilds.
func TestEngineMachineRecycling(t *testing.T) {
	t.Parallel()
	const rounds = 9
	f := func(id graph.ID, _ Env) Machine {
		return &recycleFlood{floodMachine: floodMachine{best: id, rounds: rounds}}
	}
	g := graph.Line(10)
	e := NewEngine()
	defer e.Close()

	first := runEngine(t, e, g, f, WithMachineRecycling("flood"))
	firstMachines := make(map[graph.ID]Machine)
	for nd := range first.Nodes {
		firstMachines[nd.ID] = nd.Machine
	}
	want := summarize(first)

	second := runEngine(t, e, g, f, WithMachineRecycling("flood"))
	if !reflect.DeepEqual(want, summarize(second)) {
		t.Fatalf("recycled run diverged:\nfirst  %+v\nsecond %+v", want, summarize(second))
	}
	for nd := range second.Nodes {
		id, m := nd.ID, nd.Machine
		if m != firstMachines[id] {
			t.Fatalf("node %d: machine rebuilt despite matching recycle key", id)
		}
		if n := m.(*recycleFlood).recycles; n != 1 {
			t.Fatalf("node %d: recycles = %d, want 1", id, n)
		}
	}

	// A different key must rebuild.
	third := runEngine(t, e, g, f, WithMachineRecycling("flood-v2"))
	for nd := range third.Nodes {
		id, m := nd.ID, nd.Machine
		if m == firstMachines[id] {
			t.Fatalf("node %d: machine recycled across a key change", id)
		}
	}
	// No key must rebuild too (and must not poison the next keyed run).
	fourth := runEngine(t, e, g, f)
	for nd := range fourth.Nodes {
		id, m := nd.ID, nd.Machine
		if m.(*recycleFlood).recycles != 0 {
			t.Fatalf("node %d: unkeyed run reused a machine", id)
		}
	}
	if !reflect.DeepEqual(want, summarize(fourth)) {
		t.Fatalf("unkeyed run diverged from first")
	}
}

// TestEngineRecyclingAcrossSizes grows and shrinks the run under one
// recycle key: shrunk runs recycle a prefix, grown runs recycle the
// previous machines and build the rest, and every run stays correct.
func TestEngineRecyclingAcrossSizes(t *testing.T) {
	t.Parallel()
	f := func(id graph.ID, _ Env) Machine {
		return &recycleFlood{floodMachine: floodMachine{best: id, rounds: 31}}
	}
	e := NewEngine()
	defer e.Close()
	for _, n := range []int{16, 8, 32, 32} {
		res := runEngine(t, e, graph.Line(n), f, WithMachineRecycling("flood"),
			WithMaxRounds(31))
		leader, ok := res.Leader()
		if !ok || leader != graph.ID(n-1) {
			t.Fatalf("n=%d: leader = %d, ok=%v; want %d", n, leader, ok, n-1)
		}
	}
}
