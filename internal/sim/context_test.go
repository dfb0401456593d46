package sim

import (
	"reflect"
	"testing"
	"unsafe"

	"adnet/internal/graph"
)

// probeMachine records context observations from inside a run.
type probeMachine struct {
	sawN       int
	origNbrs   []graph.ID
	isOrig01   bool
	isOrigNew  bool
	degreeAt2  int
	haltedEdge bool
}

func (p *probeMachine) Init(ctx *Context) {
	p.sawN = ctx.N()
	p.origNbrs = ctx.OrigNeighbors()
}

func (p *probeMachine) Send(ctx *Context) {}

func (p *probeMachine) Receive(ctx *Context, _ []Message) {
	switch ctx.Round() {
	case 1:
		if ctx.ID() == 0 {
			ctx.Activate(2) // chord via 1
		}
	case 2:
		if ctx.ID() == 0 {
			p.isOrig01 = ctx.IsOriginal(1)
			p.isOrigNew = ctx.IsOriginal(2)
			p.degreeAt2 = ctx.Degree()
		}
	default:
		if ctx.ID() == 0 {
			// Edge intents issued in the halting round still apply.
			ctx.Deactivate(2)
			p.haltedEdge = true
		}
		ctx.Halt()
	}
}

func TestContextObservations(t *testing.T) {
	t.Parallel()
	machines := map[graph.ID]*probeMachine{}
	res, err := Run(graph.Line(4), func(id graph.ID, env Env) Machine {
		m := &probeMachine{}
		machines[id] = m
		return m
	})
	if err != nil {
		t.Fatal(err)
	}
	m0 := machines[0]
	if m0.sawN != 4 {
		t.Errorf("N() = %d, want 4", m0.sawN)
	}
	if len(m0.origNbrs) != 1 || m0.origNbrs[0] != 1 {
		t.Errorf("OrigNeighbors = %v, want [1]", m0.origNbrs)
	}
	if !m0.isOrig01 {
		t.Error("IsOriginal(1) should be true for the line edge")
	}
	if m0.isOrigNew {
		t.Error("IsOriginal(2) should be false for the activated chord")
	}
	if m0.degreeAt2 != 2 {
		t.Errorf("Degree at round 2 = %d, want 2 (line edge + chord)", m0.degreeAt2)
	}
	// The deactivation issued in the halting round must have applied.
	if res.History.CurrentClone().HasEdge(0, 2) {
		t.Error("edge intent from the halting round was dropped")
	}
}

func TestContextBroadcastReachesAllNeighbors(t *testing.T) {
	t.Parallel()
	got := map[graph.ID]int{}
	factory := func(id graph.ID, env Env) Machine {
		return &countingMachine{got: got}
	}
	if _, err := Run(graph.Star(5), factory); err != nil {
		t.Fatal(err)
	}
	// The center (0) broadcast to 4 leaves; each leaf to the center.
	if got[0] != 4 {
		t.Errorf("center received %d messages, want 4", got[0])
	}
	for leaf := graph.ID(1); leaf < 5; leaf++ {
		if got[leaf] != 1 {
			t.Errorf("leaf %d received %d messages, want 1", leaf, got[leaf])
		}
	}
}

type countingMachine struct{ got map[graph.ID]int }

func (m *countingMachine) Init(*Context)     {}
func (m *countingMachine) Send(ctx *Context) { ctx.Broadcast("ping") }
func (m *countingMachine) Receive(ctx *Context, inbox []Message) {
	m.got[ctx.ID()] += len(inbox)
	ctx.Halt()
}

// presetStatus halts in round 1 with the status its factory chose.
type presetStatus struct{ status Status }

func (presetStatus) Init(*Context) {}
func (presetStatus) Send(*Context) {}
func (m presetStatus) Receive(ctx *Context, _ []Message) {
	ctx.SetStatus(m.status)
	ctx.Halt()
}

func TestResultLeaderHelper(t *testing.T) {
	t.Parallel()
	run := func(leaders ...graph.ID) *Result {
		res, err := Run(graph.Line(5), func(id graph.ID, _ Env) Machine {
			for _, l := range leaders {
				if l == id {
					return presetStatus{StatusLeader}
				}
			}
			return presetStatus{StatusFollower}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if l, ok := run(2).Leader(); !ok || l != 2 {
		t.Errorf("Leader() = %d, %v", l, ok)
	}
	if l, ok := run(1, 3).Leader(); ok || l != -1 {
		t.Errorf("two leaders: Leader() = %d, %v; want -1, false", l, ok)
	}
	if l, ok := run().Leader(); ok || l != -1 {
		t.Errorf("no leader: Leader() = %d, %v; want -1, false", l, ok)
	}
}

// TestResultIsViewOfEngine pins what a Result can be asked and for how
// long: a Result from Run — whose engine is already closed — still
// answers per node, and after a shrinking Reset nothing past the new
// size is reachable through the next Result.
func TestResultIsViewOfEngine(t *testing.T) {
	t.Parallel()
	res, err := Run(graph.Line(6), newFloodFactory(5))
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := res.Status(5); !ok || s != StatusLeader {
		t.Errorf("Status(5) = %v, %v", s, ok)
	}
	if s, ok := res.Status(0); !ok || s != StatusFollower {
		t.Errorf("Status(0) = %v, %v", s, ok)
	}
	if m, ok := res.Machine(3); !ok || m.(*floodMachine).best != 5 {
		t.Errorf("Machine(3) = %v, %v", m, ok)
	}
	if l, ok := res.Leader(); !ok || l != 5 {
		t.Errorf("Leader() = %d, %v", l, ok)
	}
	if _, ok := res.Status(6); ok {
		t.Error("Status of a non-node reported ok")
	}

	e := NewEngine()
	defer e.Close()
	runEngine(t, e, graph.Star(64), newFloodFactory(2))
	small := runEngine(t, e, graph.Line(4), newFloodFactory(3))
	var ids []graph.ID
	for nd := range small.Nodes {
		ids = append(ids, nd.ID)
	}
	if !reflect.DeepEqual(ids, []graph.ID{0, 1, 2, 3}) {
		t.Errorf("Nodes after shrinking Reset = %v", ids)
	}
	if s, ok := small.Status(10); ok || s != StatusNone {
		t.Errorf("Status(10) after shrinking Reset = %v, %v", s, ok)
	}
	if m, ok := small.Machine(10); ok || m != nil {
		t.Errorf("Machine(10) after shrinking Reset = %v, %v", m, ok)
	}
}

// TestContextFootprint pins the per-node context's size: the engine
// holds one per slot, and what every node shares (the History, n) is
// read through the engine, not copied into each.
func TestContextFootprint(t *testing.T) {
	if size := unsafe.Sizeof(Context{}); size > 40 {
		t.Fatalf("unsafe.Sizeof(Context{}) = %d B, want <= 40", size)
	}
}

// TestMessageFootprint pins a message's size: the inboxes hold one per
// delivery, two 4-byte graph.IDs beside the payload's interface.
func TestMessageFootprint(t *testing.T) {
	if size := unsafe.Sizeof(Message{}); size > 24 {
		t.Fatalf("unsafe.Sizeof(Message{}) = %d B, want <= 24", size)
	}
}
