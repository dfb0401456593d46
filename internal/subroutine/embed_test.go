package subroutine

import (
	"testing"

	"adnet/internal/graph"
	"adnet/internal/sim"
)

// embedHost drives an embedded LineToTree instance from a host
// machine, mimicking how GraphToWreath delegates its rebuild window.
type embedHost struct {
	inner *LineToTree
}

func (h *embedHost) Init(ctx *sim.Context) {}
func (h *embedHost) Send(ctx *sim.Context) { h.inner.Send(ctx) }
func (h *embedHost) Receive(ctx *sim.Context, inbox []sim.Message) {
	h.inner.Receive(ctx, inbox)
	if h.inner.Done(ctx.Round()) {
		ctx.Halt()
	}
}

func TestEmbeddedLineToTree(t *testing.T) {
	t.Parallel()
	m := 33
	factory := func(id graph.ID, _ sim.Env) sim.Machine {
		cfg := EmbeddedConfig{
			Self:       id,
			Branching:  2,
			StartRound: 1,
			SizeBound:  m,
		}
		if id == graph.ID(m-1) {
			cfg.IsRoot = true
		} else {
			cfg.Parent = id + 1
		}
		if id > 0 {
			cfg.Child = id - 1
			cfg.HasChild = true
		}
		return &embedHost{inner: NewEmbedded(cfg)}
	}
	res, err := sim.Run(graph.Line(m), factory)
	if err != nil {
		t.Fatal(err)
	}
	final := res.History.CurrentClone()
	if _, err := final.CompleteAryTreeShape(graph.ID(m-1), 2); err != nil {
		t.Fatalf("embedded rebuild broken: %v", err)
	}
	// The getters expose a consistent tree.
	for nd := range res.Nodes {
		id, mach := nd.ID, nd.Machine
		inner := mach.(*embedHost).inner
		parent, isRoot := inner.FinalParent()
		if isRoot != (id == graph.ID(m-1)) {
			t.Errorf("node %d: isRoot=%v", id, isRoot)
		}
		if !isRoot && !final.HasEdge(id, parent) {
			t.Errorf("node %d: parent edge {%d,%d} missing", id, id, parent)
		}
		for _, c := range inner.FinalChildren() {
			if !final.HasEdge(id, c) {
				t.Errorf("node %d: child edge to %d missing", id, c)
			}
		}
	}
}

func TestEmbeddedKeepEdge(t *testing.T) {
	t.Parallel()
	// With KeepEdge covering the line edges, the rebuild must leave
	// every original edge active (the wreath's ring survival property).
	m := 17
	factory := func(id graph.ID, _ sim.Env) sim.Machine {
		cfg := EmbeddedConfig{
			Self:       id,
			Branching:  2,
			StartRound: 1,
			SizeBound:  m,
			KeepEdge: func(peer graph.ID) bool {
				return peer == id-1 || peer == id+1 // line edges
			},
		}
		if id == graph.ID(m-1) {
			cfg.IsRoot = true
		} else {
			cfg.Parent = id + 1
		}
		if id > 0 {
			cfg.Child = id - 1
			cfg.HasChild = true
		}
		return &embedHost{inner: NewEmbedded(cfg)}
	}
	res, err := sim.Run(graph.Line(m), factory)
	if err != nil {
		t.Fatal(err)
	}
	final := res.History.CurrentClone()
	for i := 0; i+1 < m; i++ {
		if !final.HasEdge(graph.ID(i), graph.ID(i+1)) {
			t.Fatalf("protected line edge {%d,%d} was deactivated", i, i+1)
		}
	}
	// And the logical tree on top is still complete: check via the
	// pointer getters rather than raw edges (the line edges overlay).
	tree := graph.New()
	for nd := range res.Nodes {
		id, mach := nd.ID, nd.Machine
		tree.AddNode(id)
		inner := mach.(*embedHost).inner
		if p, isRoot := inner.FinalParent(); !isRoot {
			tree.MustAddEdge(id, p)
		}
	}
	if _, err := tree.CompleteAryTreeShape(graph.ID(m-1), 2); err != nil {
		t.Fatalf("pointer tree broken: %v", err)
	}
}

func TestEmbeddedWindowMatchesBudget(t *testing.T) {
	t.Parallel()
	for _, b := range []int{2, 8, 32} {
		w := EmbeddedWindow(1000, b)
		lt := NewEmbedded(EmbeddedConfig{Self: 0, Branching: b, IsRoot: true, StartRound: 5, SizeBound: 1000})
		if !lt.Done(5 + w) {
			t.Errorf("b=%d: not done after its own window", b)
		}
		if lt.Done(5 + w - 2) {
			t.Errorf("b=%d: done too early", b)
		}
	}
}
