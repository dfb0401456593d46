package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"adnet/internal/graph"
)

// floodMachine floods the maximum UID it has seen and halts after a
// fixed number of rounds; the node holding the max declares Leader.
type floodMachine struct {
	best   graph.ID
	rounds int
}

func newFloodFactory(rounds int) Factory {
	return func(id graph.ID, env Env) Machine {
		return &floodMachine{best: id, rounds: rounds}
	}
}

func (m *floodMachine) Init(ctx *Context) {}

func (m *floodMachine) Send(ctx *Context) { ctx.Broadcast(m.best) }

func (m *floodMachine) Receive(ctx *Context, inbox []Message) {
	for _, msg := range inbox {
		if v := msg.Payload.(graph.ID); v > m.best {
			m.best = v
		}
	}
	if ctx.Round() >= m.rounds {
		if m.best == ctx.ID() {
			ctx.SetStatus(StatusLeader)
		} else {
			ctx.SetStatus(StatusFollower)
		}
		ctx.Halt()
	}
}

// cliqueMachine implements §1.2's trivial strategy: every round
// activate edges to all potential neighbors; halt when none remain.
type cliqueMachine struct{}

func (cliqueMachine) Init(*Context) {}

func (cliqueMachine) Send(ctx *Context) {
	// Advertise the neighbor list so peers learn distance-2 nodes.
	nbrs := ctx.Neighbors()
	ctx.Broadcast(nbrs)
}

func (cliqueMachine) Receive(ctx *Context, inbox []Message) {
	seen := map[graph.ID]bool{ctx.ID(): true}
	for _, v := range ctx.Neighbors() {
		seen[v] = true
	}
	activated := false
	for _, msg := range inbox {
		for _, w := range msg.Payload.([]graph.ID) {
			if !seen[w] {
				seen[w] = true
				ctx.Activate(w)
				activated = true
			}
		}
	}
	if !activated && ctx.Degree() == ctx.N()-1 {
		ctx.Halt()
	}
}

func TestFloodElectsMaxUID(t *testing.T) {
	t.Parallel()
	g := graph.Line(10)
	res, err := Run(g, newFloodFactory(9))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	leader, ok := res.Leader()
	if !ok || leader != 9 {
		t.Fatalf("leader = %d, ok = %v; want 9, true", leader, ok)
	}
	if res.Metrics.TotalActivations != 0 {
		t.Fatalf("flooding should activate nothing, got %d", res.Metrics.TotalActivations)
	}
	if res.Rounds != 9 {
		t.Fatalf("rounds = %d, want 9", res.Rounds)
	}
}

func TestFloodTooFewRoundsIncompleteDissemination(t *testing.T) {
	t.Parallel()
	// 4 rounds cannot carry UID 9 across a 10-line: node 0 (distance 9
	// from the max) must still be unaware of it.
	res, err := Run(graph.Line(10), newFloodFactory(4))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	aware := 0
	for nd := range res.Nodes {
		if nd.Machine.(*floodMachine).best == 9 {
			aware++
		}
	}
	if aware >= 10 {
		t.Fatalf("all nodes learned the max UID in fewer rounds than the distance")
	}
	if aware != 5 { // nodes 5..9
		t.Fatalf("aware = %d, want 5 (information travels one hop per round)", aware)
	}
}

func TestCliqueFormationOnLine(t *testing.T) {
	t.Parallel()
	n := 17
	res, err := Run(graph.Line(n), func(graph.ID, Env) Machine { return cliqueMachine{} })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	m := res.Metrics
	if m.FinalActiveEdges != n*(n-1)/2 {
		t.Fatalf("final edges = %d, want complete graph %d", m.FinalActiveEdges, n*(n-1)/2)
	}
	// Doubling radius: K_n within ~log2(n) + 2 rounds.
	if res.Rounds > 8 {
		t.Fatalf("clique formation took %d rounds, want O(log n) ~ <=8", res.Rounds)
	}
	if m.TotalActivations != n*(n-1)/2-(n-1) {
		t.Fatalf("activations = %d", m.TotalActivations)
	}
}

func TestRoundLimit(t *testing.T) {
	t.Parallel()
	_, err := Run(graph.Line(5), newFloodFactory(1000), WithMaxRounds(3))
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("err = %v, want ErrRoundLimit", err)
	}
}

func TestRejectsEmptyAndDisconnected(t *testing.T) {
	t.Parallel()
	if _, err := Run(graph.New(), newFloodFactory(1)); err == nil {
		t.Fatalf("empty graph accepted")
	}
	g := graph.New()
	g.AddNode(0)
	g.AddNode(1)
	if _, err := Run(g, newFloodFactory(1)); err == nil {
		t.Fatalf("disconnected graph accepted")
	}
}

// badSender messages a non-neighbor.
type badSender struct{}

func (badSender) Init(*Context) {}
func (badSender) Send(ctx *Context) {
	if ctx.ID() == 0 {
		ctx.Send(99, "boo")
	}
}
func (badSender) Receive(ctx *Context, _ []Message) { ctx.Halt() }

func TestSendToNonNeighborFails(t *testing.T) {
	t.Parallel()
	g := graph.Line(3)
	g.AddNode(99)
	g.MustAddEdge(2, 99)
	_, err := Run(g, func(graph.ID, Env) Machine { return badSender{} })
	if err == nil {
		t.Fatalf("send to non-neighbor accepted")
	}
}

// badActivator violates the distance-2 rule.
type badActivator struct{}

func (badActivator) Init(*Context) {}
func (badActivator) Send(*Context) {}
func (badActivator) Receive(ctx *Context, _ []Message) {
	if ctx.ID() == 0 {
		ctx.Activate(3) // distance 3 on Line(4)
	}
	ctx.Halt()
}

func TestModelViolationSurfaces(t *testing.T) {
	t.Parallel()
	_, err := Run(graph.Line(4), func(graph.ID, Env) Machine { return badActivator{} })
	if err == nil {
		t.Fatalf("distance-3 activation accepted")
	}
}

// selfLooper tries a self-loop intent.
type selfLooper struct{}

func (selfLooper) Init(*Context) {}
func (selfLooper) Send(*Context) {}
func (selfLooper) Receive(ctx *Context, _ []Message) {
	ctx.Activate(ctx.ID())
	ctx.Halt()
}

func TestSelfLoopIntentFails(t *testing.T) {
	t.Parallel()
	_, err := Run(graph.Line(3), func(graph.ID, Env) Machine { return selfLooper{} })
	if err == nil {
		t.Fatalf("self-loop intent accepted")
	}
}

// disconnector cuts the line's middle edge.
type disconnector struct{}

func (disconnector) Init(*Context) {}
func (disconnector) Send(*Context) {}
func (disconnector) Receive(ctx *Context, _ []Message) {
	if ctx.ID() == 1 {
		ctx.Deactivate(2)
	}
	ctx.Halt()
}

func TestConnectivityCheck(t *testing.T) {
	t.Parallel()
	_, err := Run(graph.Line(4), func(graph.ID, Env) Machine { return disconnector{} },
		WithConnectivityCheck())
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("err = %v, want ErrDisconnected", err)
	}
	// Without the check the same program completes.
	if _, err := Run(graph.Line(4), func(graph.ID, Env) Machine { return disconnector{} }); err != nil {
		t.Fatalf("without check: %v", err)
	}
}

// TestFreshRunsAgree runs one spec on two fresh engines: the outcome
// is a function of the inputs alone.
func TestFreshRunsAgree(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	g := graph.RandomConnected(300, 200, rng)
	first, err := Run(g, func(graph.ID, Env) Machine { return cliqueMachine{} })
	if err != nil {
		t.Fatalf("first: %v", err)
	}
	second, err := Run(g, func(graph.ID, Env) Machine { return cliqueMachine{} })
	if err != nil {
		t.Fatalf("second: %v", err)
	}
	if !reflect.DeepEqual(first.Metrics, second.Metrics) {
		t.Fatalf("fresh runs diverged:\nfirst  %+v\nsecond %+v", first.Metrics, second.Metrics)
	}
	if first.Rounds != second.Rounds {
		t.Fatalf("rounds differ: %d vs %d", first.Rounds, second.Rounds)
	}
}

func TestRoundHookSeesTraffic(t *testing.T) {
	t.Parallel()
	var rounds, msgs int
	_, err := Run(graph.Line(6), newFloodFactory(5), WithRoundHook(func(ev RoundEvent) {
		rounds++
		msgs += len(ev.Messages)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 5 {
		t.Fatalf("hook saw %d rounds, want 5", rounds)
	}
	// Each round: every node broadcasts to each neighbor: 2*(n-1) = 10
	// directed messages per round.
	if msgs != 5*10 {
		t.Fatalf("hook saw %d messages, want 50", msgs)
	}
}

func TestHaltedNodesStaySilent(t *testing.T) {
	t.Parallel()
	// Node 0 halts in round 1; other nodes flood until round 4. The
	// run must still terminate with everyone halted.
	factory := func(id graph.ID, env Env) Machine {
		if id == 0 {
			return &haltImmediately{}
		}
		return &floodMachine{best: id, rounds: 4}
	}
	res, err := Run(graph.Line(4), factory)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 4 {
		t.Fatalf("rounds = %d, want 4", res.Rounds)
	}
	if s, ok := res.Status(0); !ok || s != StatusNone {
		t.Fatalf("halted node changed status")
	}
}

type haltImmediately struct{}

func (*haltImmediately) Init(*Context)                     {}
func (*haltImmediately) Send(*Context)                     {}
func (*haltImmediately) Receive(ctx *Context, _ []Message) { ctx.Halt() }

func TestStatusString(t *testing.T) {
	t.Parallel()
	if StatusLeader.String() != "leader" || StatusFollower.String() != "follower" || StatusNone.String() != "none" {
		t.Fatalf("Status.String broken")
	}
}

func TestInboxSenderSorted(t *testing.T) {
	t.Parallel()
	// On a star, the center receives from all leaves; senders must
	// arrive in ascending order.
	type recorder struct {
		floodMachine
		got []graph.ID
	}
	var center *recorder
	factory := func(id graph.ID, env Env) Machine {
		m := &recorder{floodMachine: floodMachine{best: id, rounds: 2}}
		if id == 0 {
			center = m
		}
		return m
	}
	_ = center
	g := graph.Star(6)
	res, err := Run(g, factory)
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// The engine guarantee is structural; verify via a custom machine.
	order := make([]graph.ID, 0, 5)
	probe := func(id graph.ID, env Env) Machine {
		return &inboxProbe{order: &order}
	}
	if _, err := Run(g, probe); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("inbox not sender-sorted: %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("center got %d messages, want 5", len(order))
	}
}

type inboxProbe struct {
	order *[]graph.ID
}

func (*inboxProbe) Init(*Context)       {}
func (p *inboxProbe) Send(ctx *Context) { ctx.Broadcast("hi") }
func (p *inboxProbe) Receive(ctx *Context, inbox []Message) {
	if ctx.ID() == 0 {
		for _, m := range inbox {
			*p.order = append(*p.order, m.From)
		}
	}
	ctx.Halt()
}

func TestMessageAccounting(t *testing.T) {
	t.Parallel()
	// One broadcast round on a star: the center sends 5, each leaf 1.
	res, err := Run(graph.Star(6), func(graph.ID, Env) Machine { return &inboxProbe{order: new([]graph.ID)} })
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMessages != 10 {
		t.Errorf("total messages = %d, want 10", res.TotalMessages)
	}
	if res.MaxMessagesPerRound != 10 {
		t.Errorf("max per round = %d, want 10", res.MaxMessagesPerRound)
	}
}
