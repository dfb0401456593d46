package baseline_test

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	. "adnet/internal/baseline"
	"adnet/internal/dynamics"
	"adnet/internal/expt"
	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/tasks"
	"adnet/internal/temporal"
)

func TestCliqueFormsCompleteGraph(t *testing.T) {
	t.Parallel()
	for _, n := range []int{2, 5, 17, 40} {
		res, err := sim.Run(graph.Line(n), NewCliqueFactory())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Metrics.FinalActiveEdges != n*(n-1)/2 {
			t.Fatalf("n=%d: %d edges, want K_n", n, res.Metrics.FinalActiveEdges)
		}
		if err := tasks.VerifyLeaderElection(res, graph.ID(n-1)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// O(log n) rounds, Θ(n²) activations: the paper's impractical
		// corner of the tradeoff.
		if res.Rounds > bits.Len(uint(n))+3 {
			t.Fatalf("n=%d: %d rounds", n, res.Rounds)
		}
		if res.Metrics.TotalActivations != n*(n-1)/2-(n-1) {
			t.Fatalf("n=%d: activations %d", n, res.Metrics.TotalActivations)
		}
	}
}

func TestFloodLinearTimeZeroActivations(t *testing.T) {
	t.Parallel()
	n := 50
	res, err := sim.Run(graph.Line(n), NewFloodFactory())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.TotalActivations != 0 {
		t.Fatalf("flooding activated %d edges", res.Metrics.TotalActivations)
	}
	// Θ(diameter) rounds: the node at the far end needs n-1 rounds.
	if res.Rounds < n-1 {
		t.Fatalf("flooding finished in %d rounds, want >= %d", res.Rounds, n-1)
	}
	if err := tasks.VerifyLeaderElection(res, graph.ID(n-1)); err != nil {
		t.Fatal(err)
	}
	// Token dissemination completed at every node: all n tokens and
	// nothing else.
	knows := func(node, token graph.ID) bool {
		m, _ := res.Machine(node)
		return m.(*FloodMachine).Knows(token)
	}
	if err := tasks.VerifyTokenDissemination(graph.Line(n).Nodes(), knows); err != nil {
		t.Fatal(err)
	}
	for nd := range res.Nodes {
		if got := nd.Machine.(*FloodMachine).NumKnown(); got != n {
			t.Fatalf("node %d holds %d tokens, want %d", nd.ID, got, n)
		}
	}
}

func TestCutInHalfLine(t *testing.T) {
	t.Parallel()
	for _, n := range []int{2, 3, 8, 33, 256, 1000} {
		res, err := CutInHalfLine(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		met := res.Metrics
		// Θ(n) total activations (Lemma D.3 optimum: ≈ n).
		if met.TotalActivations > 2*n {
			t.Fatalf("n=%d: %d activations > 2n", n, met.TotalActivations)
		}
		// ⌈log n⌉ + 1 rounds.
		if met.Rounds > bits.Len(uint(n))+2 {
			t.Fatalf("n=%d: %d rounds", n, met.Rounds)
		}
		if res.Depth > bits.Len(uint(n))+1 {
			t.Fatalf("n=%d: depth %d", n, res.Depth)
		}
		final := res.History.CurrentClone()
		if err := tasks.VerifyDepthTree(final, res.Root, bits.Len(uint(n))+1); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestEulerTourStrategyOnTrees(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		n := 5 + rng.Intn(200)
		g := graph.RandomTree(n, rng)
		res, err := EulerTourStrategy(g)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Theorem 6.3: Θ(n) activations (tour length ≤ 2n-1), O(log n)
		// rounds, Depth-log n tree.
		if res.Metrics.TotalActivations > 4*n {
			t.Fatalf("n=%d: %d activations", n, res.Metrics.TotalActivations)
		}
		if res.Metrics.Rounds > bits.Len(uint(2*n))+2 {
			t.Fatalf("n=%d: %d rounds", n, res.Metrics.Rounds)
		}
		if err := tasks.VerifyDepthTree(res.History.CurrentClone(), res.Root,
			bits.Len(uint(2*n))+2); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestEulerTourStrategyOnGeneralGraphs(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomConnected(120, 100, rng)
	res, err := EulerTourStrategy(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := tasks.VerifyDepthTree(res.History.CurrentClone(), g.MaxID(), 10); err != nil {
		t.Fatal(err)
	}
	res2, err := EulerTourStrategy(graph.Grid(8, 9))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Metrics.TotalActivations > 4*72 {
		t.Fatalf("grid activations %d", res2.Metrics.TotalActivations)
	}
}

// Property: the Euler strategy always yields a depth-O(log n) tree
// rooted at u_max with Θ(n) activations, on arbitrary connected graphs.
func TestEulerStrategyProperty(t *testing.T) {
	t.Parallel()
	f := func(seed int64, rawN uint8, extra uint8) bool {
		n := int(rawN)%150 + 2
		rng := rand.New(rand.NewSource(seed))
		g := graph.PermuteIDs(graph.RandomConnected(n, int(extra)%n, rng), rng)
		res, err := EulerTourStrategy(g)
		if err != nil {
			return false
		}
		if res.Metrics.TotalActivations > 4*n {
			return false
		}
		return tasks.VerifyDepthTree(res.History.CurrentClone(), g.MaxID(),
			bits.Len(uint(2*n))+2) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCutInHalfRejectsBadInput(t *testing.T) {
	t.Parallel()
	if _, err := CutInHalfLine(0); err == nil {
		t.Error("n=0 accepted")
	}
	bad := graph.New()
	bad.AddNode(1)
	bad.AddNode(2)
	if _, err := EulerTourStrategy(bad); err == nil {
		t.Error("disconnected graph accepted")
	}
}

// refClique and refFlood are the machines this package shipped until
// the known set became a bitset: a map per node, the message a fresh
// slice of IDs. They are kept verbatim as the reference the bitset
// machines are held to.
type refClique struct {
	known map[graph.ID]bool
}

func newRefCliqueFactory() sim.Factory {
	return func(id graph.ID, _ sim.Env) sim.Machine {
		return &refClique{known: map[graph.ID]bool{id: true}}
	}
}

func (m *refClique) Init(*sim.Context) {}

func (m *refClique) Send(ctx *sim.Context) {
	ctx.Broadcast(ctx.Neighbors())
}

func (m *refClique) Receive(ctx *sim.Context, inbox []sim.Message) {
	self := ctx.ID()
	for _, v := range ctx.Neighbors() {
		m.known[v] = true
	}
	grew := false
	for _, msg := range inbox {
		for _, w := range msg.Payload.([]graph.ID) {
			if w != self && !m.known[w] {
				m.known[w] = true
				ctx.Activate(w)
				grew = true
			}
		}
	}
	if !grew && ctx.Degree() == ctx.N()-1 {
		// Clique complete: elect max UID, one extra round of logic.
		max := self
		for v := range m.known {
			if v > max {
				max = v
			}
		}
		if max == self {
			ctx.SetStatus(sim.StatusLeader)
		} else {
			ctx.SetStatus(sim.StatusFollower)
		}
		ctx.Halt()
	}
}

type refFlood struct {
	known   map[graph.ID]bool
	lastNew int
}

func newRefFloodFactory() sim.Factory {
	return func(id graph.ID, _ sim.Env) sim.Machine {
		return &refFlood{known: map[graph.ID]bool{id: true}}
	}
}

func (m *refFlood) Init(*sim.Context) {}

func (m *refFlood) Send(ctx *sim.Context) {
	tokens := make([]graph.ID, 0, len(m.known))
	for v := range m.known {
		tokens = append(tokens, v)
	}
	ctx.Broadcast(tokens)
}

func (m *refFlood) Receive(ctx *sim.Context, inbox []sim.Message) {
	for _, msg := range inbox {
		for _, v := range msg.Payload.([]graph.ID) {
			if !m.known[v] {
				m.known[v] = true
				m.lastNew = ctx.Round()
			}
		}
	}
	// Halt only after the token set has been quiet for two rounds: a
	// node that still receives new tokens is still on some other
	// node's dissemination path and must keep relaying.
	if len(m.known) == ctx.N() && ctx.Round() >= m.lastNew+2 {
		max := ctx.ID()
		for v := range m.known {
			if v > max {
				max = v
			}
		}
		if max == ctx.ID() {
			ctx.SetStatus(sim.StatusLeader)
		} else {
			ctx.SetStatus(sim.StatusFollower)
		}
		ctx.Halt()
	}
}

// trace is everything one execution lets an observer see: per round
// the delivered (From, To) list and the RoundDelta's four lists, then
// the totals, the final statuses and the error.
type trace struct {
	rounds   [][]byte
	total    int
	messages int
	statuses []sim.Status
	err      string
}

// runTrace executes factory on g, under the environment dyn describes
// when it is non-nil, and records the trace.
func runTrace(t *testing.T, g *graph.Graph, factory sim.Factory, maxRounds int, dyn *dynamics.Spec, seed int64) trace {
	t.Helper()
	var tr trace
	var cur []byte
	ints := func(vs ...int) {
		for _, v := range vs {
			cur = binary.AppendVarint(cur, int64(v))
		}
	}
	opts := []sim.Option{
		sim.WithMaxRounds(maxRounds),
		sim.WithRoundHook(func(ev sim.RoundEvent) {
			ints(ev.Round, len(ev.Messages))
			for _, m := range ev.Messages {
				ints(int(m.From), int(m.To))
			}
		}),
		sim.WithDeltaHook(func(d temporal.RoundDelta) {
			for _, list := range [][]int32{d.Activate, d.Deactivate, d.EnvActivate, d.EnvDeactivate} {
				ints(len(list))
				for _, s := range list {
					ints(int(s))
				}
			}
			tr.rounds = append(tr.rounds, cur)
			cur = nil
		}),
	}
	if dyn != nil {
		env, err := dynamics.New(*dyn, seed)
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, sim.WithEnvironment(env))
	}
	res, err := sim.Run(g, factory, opts...)
	if res != nil {
		tr.total, tr.messages = res.Rounds, res.TotalMessages
		for nd := range res.Nodes {
			tr.statuses = append(tr.statuses, nd.Status)
		}
	}
	if err != nil {
		tr.err = err.Error()
	}
	return tr
}

// diff names the first thing in which two traces differ, or "".
func (a trace) diff(b trace) string {
	for i := range min(len(a.rounds), len(b.rounds)) {
		if !slices.Equal(a.rounds[i], b.rounds[i]) {
			return fmt.Sprintf("round %d differs (messages or deltas)", i+1)
		}
	}
	switch {
	case len(a.rounds) != len(b.rounds) || a.total != b.total:
		return fmt.Sprintf("rounds %d (%d recorded) vs %d (%d recorded)", a.total, len(a.rounds), b.total, len(b.rounds))
	case a.messages != b.messages:
		return fmt.Sprintf("message totals %d vs %d", a.messages, b.messages)
	case !slices.Equal(a.statuses, b.statuses):
		return fmt.Sprintf("statuses %v vs %v", a.statuses, b.statuses)
	case a.err != b.err:
		return fmt.Sprintf("errors %q vs %q", a.err, b.err)
	}
	return ""
}

// sparseRelabel returns g with every node u renamed 3u+7: IDs that are
// not ranks, so a set indexed by rank or sized by n shows.
func sparseRelabel(g *graph.Graph) *graph.Graph {
	out := graph.New()
	for _, u := range g.Nodes() {
		out.AddNode(3*u + 7)
	}
	for _, e := range g.Edges() {
		out.MustAddEdge(3*e.A+7, 3*e.B+7)
	}
	return out
}

// TestMatchesReferenceMachines holds FloodMachine and CliqueMachine to
// the map-based machines they replaced: on the seven workload families
// at five sizes and three seeds, plus one relabelling with sparse IDs,
// the two must produce equal traces — undisturbed and under every
// dynamics schedule of the robustness matrix, crash in both restart
// modes. The trace goldens pin
// undisturbed runs and the robustness gate success counts; only this
// sees a machine that stops re-offering what it knows, which behaves
// identically until an environment loses a message.
func TestMatchesReferenceMachines(t *testing.T) {
	t.Parallel()
	schedules := []*dynamics.Spec{
		nil,
		{Class: dynamics.ClassEdgeChurn},
		{Class: dynamics.ClassTargetedCut},
		{Class: dynamics.ClassBurst},
		{Class: dynamics.ClassCrash, Mode: dynamics.ModeSleep},
		{Class: dynamics.ClassCrash, Mode: dynamics.ModeReboot},
	}
	// Environments keep many runs from ever halting (targeted-cut tears
	// down a clique as fast as it forms). A round cap well past what an
	// undisturbed run needs — n+1 rounds of flooding on a line, ⌈log n⌉+2
	// of clique formation — keeps those comparable, both sides having to
	// reach it in the same state, and short.
	machines := []struct {
		name      string
		maxN      int
		maxRounds func(n int) int
		got, ref  sim.Factory
	}{
		{"flood", 130, func(n int) int { return 2*n + 32 }, NewFloodFactory(), newRefFloodFactory()},
		{"clique", 64, func(int) int { return 48 }, NewCliqueFactory(), newRefCliqueFactory()},
	}
	type input struct {
		name string
		g    *graph.Graph
		seed int64
	}
	var inputs []input
	for _, family := range []string{"line", "ring", "random-tree", "bounded-degree", "random", "power-law", "small-world"} {
		for _, n := range []int{2, 3, 17, 64, 130} {
			for seed := int64(1); seed <= 3; seed++ {
				g, err := expt.Workload(family, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				inputs = append(inputs, input{fmt.Sprintf("%s/%d/seed%d", family, n, seed), g, seed})
			}
		}
	}
	tree, err := expt.Workload("random-tree", 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"random-tree/24/seed1/3u+7", sparseRelabel(tree), 1})

	for _, mc := range machines {
		for _, dyn := range schedules {
			name := mc.name + "/none"
			if dyn != nil {
				name = mc.name + "/" + dyn.Key()
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				for _, in := range inputs {
					if in.g.NumNodes() > mc.maxN {
						continue
					}
					limit := mc.maxRounds(in.g.NumNodes())
					want := runTrace(t, in.g, mc.ref, limit, dyn, in.seed)
					if dyn == nil && want.err != "" {
						t.Errorf("%s: undisturbed reference run failed: %s", in.name, want.err)
					}
					got := runTrace(t, in.g, mc.got, limit, dyn, in.seed)
					if d := want.diff(got); d != "" {
						t.Errorf("%s: reference vs bitset machine: %s", in.name, d)
					}
				}
			})
		}
	}
}

// TestRecycleAfterLargerRun runs n = 256 and then n = 17 on one
// recycling engine: the small run's machines are the large run's,
// restored in place, and must carry nothing over — every flood node
// ends knowing exactly the 17 tokens of its own run, and both
// algorithms measure what a single-use engine measures.
func TestRecycleAfterLargerRun(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name    string
		big     int
		factory sim.Factory
	}{
		{"flood", 256, NewFloodFactory()},
		{"clique", 64, NewCliqueFactory()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			defer eng.Close()
			run := func(g *graph.Graph) *sim.Result {
				if err := eng.Reset(g, tc.factory, sim.WithMachineRecycling(tc.name)); err != nil {
					t.Fatal(err)
				}
				res, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			large, _ := run(graph.Line(tc.big)).Machine(0)
			small := graph.Ring(17)
			res := run(small)
			if m, _ := res.Machine(0); m != large {
				t.Error("node 0's machine was rebuilt, not recycled")
			}
			fresh, err := sim.Run(small, tc.factory)
			if err != nil {
				t.Fatal(err)
			}
			if err := tasks.VerifyLeaderElection(res, 16); err != nil {
				t.Errorf("recycled run: %v", err)
			}
			if res.Rounds != fresh.Rounds || res.TotalMessages != fresh.TotalMessages || res.Metrics != fresh.Metrics {
				t.Errorf("recycled run %d rounds %d messages %+v, fresh %d %d %+v",
					res.Rounds, res.TotalMessages, res.Metrics, fresh.Rounds, fresh.TotalMessages, fresh.Metrics)
			}
			for nd := range res.Nodes {
				m, ok := nd.Machine.(*FloodMachine)
				if !ok {
					break
				}
				if m.NumKnown() != 17 {
					t.Errorf("node %d holds %d tokens after the recycled run, want 17", nd.ID, m.NumKnown())
				}
				for v := graph.ID(0); v < graph.ID(tc.big); v++ {
					if m.Knows(v) != (v < 17) {
						t.Errorf("node %d: Knows(%d) = %v after the recycled run", nd.ID, v, m.Knows(v))
					}
				}
			}
		})
	}
}
