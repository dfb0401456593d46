package sim

import (
	"reflect"
	"testing"

	"adnet/internal/graph"
	"adnet/internal/temporal"
)

// phasedIntents issues edge intents from all three callbacks in round
// 1 according to its script (node → target), then halts in round 2.
type phasedIntents struct {
	inInit, inSend, inRecv map[graph.ID]graph.ID
}

func (m phasedIntents) issue(ctx *Context, script map[graph.ID]graph.ID) {
	if v, ok := script[ctx.ID()]; ok && ctx.Round() <= 1 {
		ctx.Activate(v)
	}
}

func (m phasedIntents) Init(ctx *Context) { m.issue(ctx, m.inInit) }
func (m phasedIntents) Send(ctx *Context) { m.issue(ctx, m.inSend) }
func (m phasedIntents) Receive(ctx *Context, _ []Message) {
	m.issue(ctx, m.inRecv)
	if ctx.Round() == 2 {
		ctx.Halt()
	}
}

// TestIntentPhases pins which callback's intents reach the model: an
// intent issued in Send or Receive commits with that round, one issued
// in Init is dropped — sequentially and on the pool, where the
// Send-phase intents come from both workers' slot ranges.
func TestIntentPhases(t *testing.T) {
	t.Parallel()
	m := phasedIntents{
		inInit: map[graph.ID]graph.ID{0: 2, 7: 5}, // legal, but never applied
		inSend: map[graph.ID]graph.ID{1: 3, 5: 7},
		inRecv: map[graph.ID]graph.ID{2: 4, 4: 6},
	}
	want := deltaLog{
		{Round: 1, Activate: []int32{1, 3, 2, 4, 4, 6, 5, 7}},
		{Round: 2},
	}
	for _, workers := range []int{1, 2} {
		var log deltaLog
		res, err := Run(graph.Line(8), func(graph.ID, Env) Machine { return m },
			WithParallelism(workers), log.record())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(log, want) {
			t.Errorf("workers=%d: deltas = %+v, want %+v", workers, log, want)
		}
		if res.History.Active(0, 2) || !res.History.Active(5, 7) {
			t.Errorf("workers=%d: Init intent applied or Send intent lost", workers)
		}
	}
}

// TestViolationOrderAcrossPhases: when a Send-phase and a Receive-phase
// intent both break the model in one round, every worker count reports
// the one a sequential scan meets first — the Send-phase intent, here
// issued from the last worker's range.
func TestViolationOrderAcrossPhases(t *testing.T) {
	t.Parallel()
	m := phasedIntents{
		inSend: map[graph.ID]graph.ID{7: 3},
		inRecv: map[graph.ID]graph.ID{0: 4},
	}
	for _, workers := range []int{1, 2} {
		_, err := Run(graph.Line(8), func(graph.ID, Env) Machine { return m }, WithParallelism(workers))
		v, ok := err.(*temporal.Violation)
		if !ok || v.Edge != graph.NewEdge(3, 7) {
			t.Errorf("workers=%d: err = %v, want the violation of {3,7}", workers, err)
		}
	}
}
