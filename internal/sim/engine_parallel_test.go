package sim

import (
	"reflect"
	"testing"

	"adnet/internal/graph"
)

// TestEngineSummaryWorkersAndBusy pins the observer's parallelism
// digest: parallel runs report the resolved worker count and a
// positive busy time bounded by Workers × Duration; sequential runs
// report one worker with BusyTime equal to the wall clock.
func TestEngineSummaryWorkersAndBusy(t *testing.T) {
	t.Parallel()
	var got RunSummary
	obs := WithRunObserver(func(s RunSummary) { got = s })

	if _, err := Run(graph.Ring(64), func(graph.ID, Env) Machine { return cliqueMachine{} },
		WithParallelism(4), obs); err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if got.Workers != 4 {
		t.Fatalf("parallel run Workers = %d, want 4", got.Workers)
	}
	if got.BusyTime <= 0 {
		t.Fatalf("parallel run BusyTime = %v, want > 0", got.BusyTime)
	}
	if got.BusyTime > 4*got.Duration {
		t.Fatalf("BusyTime %v exceeds Workers×Duration %v", got.BusyTime, 4*got.Duration)
	}
	if eff := got.ParallelEfficiency(); eff <= 0 || eff > 1 {
		t.Fatalf("ParallelEfficiency() = %v, want in (0, 1]", eff)
	}

	if _, err := Run(graph.Ring(64), func(graph.ID, Env) Machine { return cliqueMachine{} },
		WithParallelism(1), obs); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	if got.Workers != 1 {
		t.Fatalf("sequential run Workers = %d, want 1", got.Workers)
	}
	if got.BusyTime != got.Duration {
		t.Fatalf("sequential run BusyTime = %v, want Duration %v", got.BusyTime, got.Duration)
	}
}

// TestDefaultParallelismIsSequential pins the default: with no
// WithParallelism a run steps on one worker, whatever n and
// GOMAXPROCS are.
func TestDefaultParallelismIsSequential(t *testing.T) {
	t.Parallel()
	var got RunSummary
	if _, err := Run(graph.Ring(1024), newFloodFactory(3),
		WithRunObserver(func(s RunSummary) { got = s })); err != nil {
		t.Fatal(err)
	}
	if got.Workers != 1 {
		t.Fatalf("default run Workers = %d, want 1", got.Workers)
	}
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
