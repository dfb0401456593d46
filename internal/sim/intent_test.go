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
// in Init is dropped. Send-phase intents from low and high slots land
// in the round's batch with the Receive-phase ones.
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
	var log deltaLog
	res, err := Run(graph.Line(8), func(graph.ID, Env) Machine { return m }, log.record())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("deltas = %+v, want %+v", log, want)
	}
	if res.History.Active(0, 2) || !res.History.Active(5, 7) {
		t.Error("Init intent applied or Send intent lost")
	}
}

// TestViolationOrderAcrossPhases: when a Send-phase and a Receive-phase
// intent both break the model in one round, the run reports the
// Send-phase one — the batch holds every Send intent before any
// Receive intent, even one issued from the highest slot.
func TestViolationOrderAcrossPhases(t *testing.T) {
	t.Parallel()
	m := phasedIntents{
		inSend: map[graph.ID]graph.ID{7: 3},
		inRecv: map[graph.ID]graph.ID{0: 4},
	}
	_, err := Run(graph.Line(8), func(graph.ID, Env) Machine { return m })
	v, ok := err.(*temporal.Violation)
	if !ok || v.Edge != graph.NewEdge(3, 7) {
		t.Errorf("err = %v, want the violation of {3,7}", err)
	}
}
