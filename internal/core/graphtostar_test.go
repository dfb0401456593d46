package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/tasks"
)

// runGTS executes GraphToStar on g with the connectivity invariant
// enforced and the standard post-conditions checked: spanning star at
// u_max, unique elected leader, and every measure within StarBound.
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
	bound := StarBound(g.NumNodes())
	if err := tasks.VerifyDepthTree(final, umax, bound.Depth); err != nil {
		t.Fatal(err)
	}
	if err := bound.Check(tasks.Cost(res.Metrics)); err != nil {
		t.Fatalf("n=%d: %v", g.NumNodes(), err)
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

// TestGraphToStarComplexityBounds: Theorem 3.8 on the spanning line,
// the longest diameter, up to n = 1,024; runGTS holds each run to
// StarBound.
func TestGraphToStarComplexityBounds(t *testing.T) {
	t.Parallel()
	for _, n := range []int{64, 256, 1024} {
		runGTS(t, graph.Line(n))
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
// and every measure within StarBound.
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
		return StarBound(n).Check(tasks.Cost(res.Metrics)) == nil
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

// TestReportFoldMatchesListReduce: a committee's folded report equals
// the list-then-reduce it replaced — each member keeping its step-0
// announcements and summarising them, the leader keeping every
// summary and taking the best — with announcements and reports folded
// in shuffled orders. Few distinct UIDs and vias force the ties.
func TestReportFoldMatchesListReduce(t *testing.T) {
	t.Parallel()
	type sighting struct {
		via graph.ID
		ann Announce
	}
	better := func(leader, via graph.ID, best gtsReport) bool {
		return !best.HasBest || leader > best.BestLeader || (leader == best.BestLeader && via < best.Via)
	}
	// summarise is the member's old report: every sighting kept, then
	// reduced.
	summarise := func(seen []sighting) gtsReport {
		rep := gtsReport{AnyForeign: len(seen) > 0}
		for _, s := range seen {
			if s.ann.Mode.selectable() && better(s.ann.Leader, s.via, rep) {
				rep.HasBest, rep.BestLeader, rep.Via = true, s.ann.Leader, s.via
			}
		}
		return rep
	}
	modes := []Mode{ModeSelection, ModeWaiting, ModeMerging, ModePulling, ModeTermination}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		members := make([][]sighting, 1+rng.Intn(6))
		for i := range members {
			for range rng.Intn(5) {
				members[i] = append(members[i], sighting{
					via: graph.ID(rng.Intn(4)),
					ann: Announce{Leader: graph.ID(rng.Intn(4)), Mode: modes[rng.Intn(len(modes))]},
				})
			}
		}
		// The old leader: one summary per member, then the best.
		var want gtsReport
		for _, seen := range members {
			rep := summarise(seen)
			want.AnyForeign = want.AnyForeign || rep.AnyForeign
			if rep.HasBest && better(rep.BestLeader, rep.Via, want) {
				want.HasBest, want.BestLeader, want.Via = true, rep.BestLeader, rep.Via
			}
		}
		// The fold: each member folds its sightings on receipt, member 0
		// is the leader and merges the others' reports as they arrive.
		reps := make([]gtsReport, len(members))
		for i, seen := range members {
			rng.Shuffle(len(seen), func(a, b int) { seen[a], seen[b] = seen[b], seen[a] })
			for _, s := range seen {
				reps[i].AnyForeign = true
				if s.ann.Mode.selectable() {
					reps[i].fold(s.ann.Leader, s.via)
				}
			}
		}
		rng.Shuffle(len(reps)-1, func(a, b int) { reps[a+1], reps[b+1] = reps[b+1], reps[a+1] })
		got := reps[0]
		for i := range reps[1:] {
			got.merge(&reps[1+i])
		}
		if got != want {
			t.Fatalf("trial %d: folded %+v, list-then-reduce %+v (members %v)", trial, got, want, members)
		}
	}
}

// TestMachineFootprint pins the machines' sizes: one is allocated per
// node, and its IDs are 4-byte graph.IDs and its enums bytes.
func TestMachineFootprint(t *testing.T) {
	if size := unsafe.Sizeof(GraphToStar{}); size > 160 {
		t.Errorf("unsafe.Sizeof(GraphToStar{}) = %d B, want <= 160", size)
	}
	if size := unsafe.Sizeof(GraphToWreath{}); size > 792 {
		t.Errorf("unsafe.Sizeof(GraphToWreath{}) = %d B, want <= 792", size)
	}
}
