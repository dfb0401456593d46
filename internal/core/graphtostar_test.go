package core

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/tasks"
)

// runGTS executes GraphToStar on g with the connectivity invariant
// enforced and the standard post-conditions checked: spanning star at
// u_max, unique elected leader.
func runGTS(t *testing.T, g *graph.Graph) *sim.Result {
	t.Helper()
	res, err := sim.Run(g, NewGraphToStarFactory(), sim.WithConnectivityCheck())
	if err != nil {
		t.Fatalf("GraphToStar: %v", err)
	}
	umax := g.MaxID()
	final := res.History.CurrentClone()
	if !final.IsStarCentered(umax) {
		t.Fatalf("final graph is not a spanning star at u_max=%d (n=%d m=%d)",
			umax, final.NumNodes(), final.NumEdges())
	}
	if err := tasks.VerifyLeaderElection(res, umax); err != nil {
		t.Fatal(err)
	}
	if err := tasks.VerifyDepthTree(final, umax, StarDepth(g.NumNodes())); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestGraphToStarSingleton(t *testing.T) {
	t.Parallel()
	g := graph.New()
	g.AddNode(7)
	runGTS(t, g)
}

func TestGraphToStarPair(t *testing.T) {
	t.Parallel()
	runGTS(t, graph.Line(2))
}

func TestGraphToStarLines(t *testing.T) {
	t.Parallel()
	for _, n := range []int{3, 4, 5, 8, 16, 17, 33, 64, 100, 129} {
		runGTS(t, graph.Line(n))
	}
}

func TestGraphToStarRings(t *testing.T) {
	t.Parallel()
	for _, n := range []int{3, 4, 7, 16, 63, 128} {
		runGTS(t, graph.Ring(n))
	}
}

func TestGraphToStarIncreasingRing(t *testing.T) {
	t.Parallel()
	// The Theorem 6.4 lower-bound instance.
	runGTS(t, graph.IncreasingRing(64))
}

func TestGraphToStarStars(t *testing.T) {
	t.Parallel()
	// Already a star — but centered at the MINIMUM UID, so the
	// algorithm must re-center it at u_max.
	runGTS(t, graph.Star(32))
}

func TestGraphToStarCompleteGraph(t *testing.T) {
	t.Parallel()
	runGTS(t, graph.Complete(24))
}

func TestGraphToStarTreesAndGrids(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	runGTS(t, graph.RandomTree(85, rng))
	runGTS(t, graph.Grid(7, 9))
	runGTS(t, graph.Caterpillar(20, 2))
	runGTS(t, graph.Lollipop(8, 12))
	runGTS(t, graph.CompleteBinaryTree(63))
}

func TestGraphToStarRandomGraphs(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 8; i++ {
		n := 10 + rng.Intn(150)
		g := graph.RandomConnected(n, rng.Intn(2*n), rng)
		runGTS(t, graph.PermuteIDs(g, rng))
	}
}

func TestGraphToStarComplexityBounds(t *testing.T) {
	t.Parallel()
	for _, n := range []int{64, 256, 1024} {
		res := runGTS(t, graph.Line(n))
		met := res.Metrics
		logn := bits.Len(uint(n))
		// Theorem 3.8: O(log n) time. Our phase is 8 rounds and the
		// phase count is O(log n); allow a generous constant.
		if maxRounds := StarPhaseLength * (4*logn + 8); res.Rounds > maxRounds {
			t.Errorf("n=%d: %d rounds > %d (phase len %d)", n, res.Rounds, maxRounds, StarPhaseLength)
		}
		// At most 2n activated edges alive in any round.
		if met.MaxActivatedEdges > 2*n {
			t.Errorf("n=%d: %d activated edges alive > 2n", n, met.MaxActivatedEdges)
		}
		// O(n log n) total activations.
		if bound := 4 * n * logn; met.TotalActivations > bound {
			t.Errorf("n=%d: %d total activations > %d", n, met.TotalActivations, bound)
		}
	}
}

func TestGraphToStarPhaseCountLogarithmic(t *testing.T) {
	t.Parallel()
	// Lemma 3.6: O(log n) phases. Doubling n adds O(1) phases.
	var prevPhases int
	for _, n := range []int{32, 64, 128, 256, 512} {
		res := runGTS(t, graph.Line(n))
		phases := (res.Rounds + StarPhaseLength - 1) / StarPhaseLength
		if prevPhases > 0 && phases > prevPhases+6 {
			t.Errorf("n=%d: phase count %d jumped from %d — not logarithmic growth",
				n, phases, prevPhases)
		}
		prevPhases = phases
	}
}

func TestGraphToStarCommitteeInvariants(t *testing.T) {
	t.Parallel()
	// After every run, all machines agree the final committee is led
	// by u_max and every non-leader is a follower.
	g := graph.Grid(6, 6)
	res := runGTS(t, g)
	umax := g.MaxID()
	for nd := range res.Nodes {
		id, mach := nd.ID, nd.Machine
		gts := mach.(*GraphToStar)
		if gts.Leader() != umax {
			t.Errorf("node %d believes leader is %d, want %d", id, gts.Leader(), umax)
		}
		wantRole := RoleFollower
		if id == umax {
			wantRole = RoleLeader
		}
		if gts.Role() != wantRole {
			t.Errorf("node %d role %v, want %v", id, gts.Role(), wantRole)
		}
	}
}

// Property: on arbitrary random connected graphs with permuted UIDs,
// GraphToStar terminates with the spanning star, the correct leader,
// and never exceeds the 2n activated-edge budget.
func TestGraphToStarProperty(t *testing.T) {
	t.Parallel()
	f := func(seed int64, rawN uint8, rawExtra uint8) bool {
		n := int(rawN)%120 + 2
		rng := rand.New(rand.NewSource(seed))
		g := graph.PermuteIDs(graph.RandomConnected(n, int(rawExtra)%n, rng), rng)
		res, err := sim.Run(g, NewGraphToStarFactory(), sim.WithConnectivityCheck())
		if err != nil {
			return false
		}
		umax := g.MaxID()
		if !res.History.CurrentClone().IsStarCentered(umax) {
			return false
		}
		if err := tasks.VerifyLeaderElection(res, umax); err != nil {
			return false
		}
		return res.Metrics.MaxActivatedEdges <= 2*n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestModeStrings(t *testing.T) {
	t.Parallel()
	for m, want := range map[Mode]string{
		ModeSelection: "selection", ModeMerging: "merging", ModePulling: "pulling",
		ModeWaiting: "waiting", ModeTermination: "termination", Mode(0): "invalid",
	} {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
	if RoleLeader.String() != "leader" || RoleFollower.String() != "follower" {
		t.Error("Role strings broken")
	}
}
