package bounds

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"adnet/internal/baseline"
	"adnet/internal/core"
	"adnet/internal/graph"
	"adnet/internal/sim"
)

func TestKnowledgeTrackerOnFlood(t *testing.T) {
	t.Parallel()
	g := graph.Line(12)
	tracker := NewKnowledgeTracker(g.Nodes())
	_, err := sim.Run(g, baseline.NewFloodFactory(), sim.WithRoundHook(tracker.Hook()))
	if err != nil {
		t.Fatal(err)
	}
	// After a full flood, everyone may know everything.
	for _, u := range g.Nodes() {
		for _, v := range g.Nodes() {
			if !tracker.Knows(u, v) {
				t.Fatalf("node %d missing %d", u, v)
			}
		}
	}
}

func TestKnowledgePropagatesOneHopPerRound(t *testing.T) {
	t.Parallel()
	// Stop a flood after 3 rounds: knowledge of UID 0 must not have
	// travelled more than 3 hops.
	g := graph.Line(10)
	tracker := NewKnowledgeTracker(g.Nodes())
	factory := func(id graph.ID, env sim.Env) sim.Machine {
		return &stopAfter{inner: baseline.NewFloodFactory()(id, env), limit: 3}
	}
	if _, err := sim.Run(g, factory, sim.WithRoundHook(tracker.Hook())); err != nil {
		t.Fatal(err)
	}
	for _, w := range tracker.Holders(0) {
		if int(w) > 3 {
			t.Fatalf("UID 0 reached node %d in 3 rounds", w)
		}
	}
}

// Holders answers in ascending ID order, every call: potentialOn and
// any caller that prints or compares the list depend on it. (The
// tracker used to range over a map here, so two calls rarely agreed.)
func TestHoldersAscending(t *testing.T) {
	t.Parallel()
	g := graph.PermuteIDs(graph.Ring(40), rand.New(rand.NewSource(5)))
	tracker := NewKnowledgeTracker(g.Nodes())
	if _, err := sim.Run(g, baseline.NewFloodFactory(), sim.WithRoundHook(tracker.Hook())); err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 20; call++ {
		got := tracker.Holders(7)
		if len(got) != 40 {
			t.Fatalf("call %d: %d holders of UID 7 after a full flood, want 40", call, len(got))
		}
		if !slices.IsSorted(got) {
			t.Fatalf("call %d: holders not ascending: %v", call, got)
		}
	}
}

// A message carries what its sender knew when the round began, not
// what the sender learns in the same round: on a line, one round moves
// every UID exactly one hop, however the messages are ordered.
func TestKnowledgeTransfersRoundStartSnapshot(t *testing.T) {
	t.Parallel()
	tracker := NewKnowledgeTracker([]graph.ID{0, 1, 2})
	tracker.Hook()(sim.RoundEvent{Round: 1, Messages: []sim.Message{
		{From: 0, To: 1}, {From: 2, To: 1}, {From: 1, To: 2}, {From: 1, To: 0},
	}})
	for w, want := range [][]graph.ID{{0, 1}, {0, 1, 2}, {1, 2}} {
		for u := graph.ID(0); u < 3; u++ {
			if got := tracker.Knows(graph.ID(w), u); got != slices.Contains(want, u) {
				t.Errorf("after round 1: Knows(%d, %d) = %v, want knowledge %v", w, u, got, want)
			}
		}
	}
}

type stopAfter struct {
	inner sim.Machine
	limit int
}

func (s *stopAfter) Init(ctx *sim.Context) { s.inner.Init(ctx) }
func (s *stopAfter) Send(ctx *sim.Context) {
	if ctx.Round() <= s.limit {
		s.inner.Send(ctx)
	}
}
func (s *stopAfter) Receive(ctx *sim.Context, inbox []sim.Message) {
	if ctx.Round() <= s.limit {
		s.inner.Receive(ctx, inbox)
	}
	if ctx.Round() >= s.limit {
		ctx.Halt()
	}
}

// Lemma 6.1 mechanics: on the spanning line, the endpoint-to-endpoint
// potential can at best halve per round, so any algorithm needs
// Ω(log n) rounds. Verified on GraphToStar.
func TestPotentialDecayOnLine(t *testing.T) {
	t.Parallel()
	n := 64
	series, res, err := PotentialSeries(graph.Line(n), core.NewGraphToStarFactory(),
		0, graph.ID(n-1))
	if err != nil {
		t.Fatal(err)
	}
	if series[0] != n-1 {
		t.Fatalf("initial potential %d, want %d", series[0], n-1)
	}
	last := series[len(series)-1]
	if last > 2 {
		t.Fatalf("final potential %d, want <= 2 (spanning star)", last)
	}
	// The potential can never more than halve in a round (plus the
	// one-hop information step): factor <= ~2.2 with slack.
	if f := MinPotentialDropFactor(series); f > 3.0 {
		t.Fatalf("potential dropped by factor %.2f in one round", f)
	}
	// Consequently the run needed at least log2(n) - O(1) rounds.
	if res.Rounds < bits.Len(uint(n))-2 {
		t.Fatalf("finished in %d rounds, below the log n lower bound", res.Rounds)
	}
}

// Theorem 6.4 separation: on the increasing-order ring, the
// distributed GraphToStar pays Ω(n log n) total activations while the
// centralized strategy needs only Θ(n).
func TestDistributedVsCentralizedActivationGap(t *testing.T) {
	t.Parallel()
	for _, n := range []int{64, 128, 256} {
		g := graph.IncreasingRing(n)
		res, err := sim.Run(g, core.NewGraphToStarFactory())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		cent, err := baseline.EulerTourStrategy(g)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		dist := float64(res.Metrics.TotalActivations)
		c := float64(cent.Metrics.TotalActivations)
		// The distributed cost grows superlinearly: at least c·n·log n
		// for a small c; the centralized cost stays ≤ 4n.
		if dist < 1.1*float64(n) {
			t.Errorf("n=%d: distributed activations %v suspiciously low", n, dist)
		}
		if c > 4*float64(n) {
			t.Errorf("n=%d: centralized activations %v not Θ(n)", n, c)
		}
		ratio := dist / c
		if ratio < 1.2 {
			t.Errorf("n=%d: no separation (ratio %.2f)", n, ratio)
		}
		_ = math.Log2
	}
}

func TestMinPotentialDropFactor(t *testing.T) {
	t.Parallel()
	if f := MinPotentialDropFactor([]int{8, 4, 2, 1}); f != 2.0 {
		t.Fatalf("factor = %v, want 2", f)
	}
	if f := MinPotentialDropFactor([]int{9, 3}); f != 3.0 {
		t.Fatalf("factor = %v, want 3", f)
	}
	if f := MinPotentialDropFactor([]int{5}); f != 1.0 {
		t.Fatalf("factor = %v, want 1", f)
	}
}
