package tasks

import (
	"testing"

	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/temporal"
)

// statusMachine halts immediately with a preset status.
type statusMachine struct{ status sim.Status }

func (m statusMachine) Init(*sim.Context) {}
func (m statusMachine) Send(*sim.Context) {}
func (m statusMachine) Receive(ctx *sim.Context, _ []sim.Message) {
	ctx.SetStatus(m.status)
	ctx.Halt()
}

func runWithStatuses(t *testing.T, statuses map[graph.ID]sim.Status) *sim.Result {
	t.Helper()
	g := graph.Line(len(statuses))
	res, err := sim.Run(g, func(id graph.ID, _ sim.Env) sim.Machine {
		return statusMachine{status: statuses[id]}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSameEdges(t *testing.T) {
	t.Parallel()
	a := graph.Line(5)
	b := graph.Line(5)
	if !SameEdges(a, b) {
		t.Error("identical lines differ")
	}
	b.RemoveEdge(1, 2)
	if SameEdges(a, b) {
		t.Error("edge-removed copy equal")
	}
	b.MustAddEdge(1, 3) // same edge count, different edges
	if SameEdges(a, b) {
		t.Error("different edge sets equal")
	}
	c := graph.New()
	c.AddNode(9)
	if SameEdges(a, c) {
		t.Error("different node sets equal")
	}
}

func TestVerifyLeaderElection(t *testing.T) {
	t.Parallel()
	good := runWithStatuses(t, map[graph.ID]sim.Status{
		0: sim.StatusFollower, 1: sim.StatusFollower, 2: sim.StatusLeader,
	})
	if err := VerifyLeaderElection(good, 2); err != nil {
		t.Errorf("valid election rejected: %v", err)
	}
	if err := VerifyLeaderElection(good, 1); err == nil {
		t.Error("wrong leader accepted")
	}
	none := runWithStatuses(t, map[graph.ID]sim.Status{
		0: sim.StatusFollower, 1: sim.StatusFollower, 2: sim.StatusFollower,
	})
	if err := VerifyLeaderElection(none, 2); err == nil {
		t.Error("zero leaders accepted")
	}
	two := runWithStatuses(t, map[graph.ID]sim.Status{
		0: sim.StatusLeader, 1: sim.StatusFollower, 2: sim.StatusLeader,
	})
	if err := VerifyLeaderElection(two, 2); err == nil {
		t.Error("two leaders accepted")
	}
	undecided := runWithStatuses(t, map[graph.ID]sim.Status{
		0: sim.StatusNone, 1: sim.StatusFollower, 2: sim.StatusLeader,
	})
	if err := VerifyLeaderElection(undecided, 2); err == nil {
		t.Error("undecided node accepted")
	}
}

func TestVerifyDepthTree(t *testing.T) {
	t.Parallel()
	star := graph.Star(8)
	if err := VerifyDepthTree(star, 0, 1); err != nil {
		t.Errorf("star rejected: %v", err)
	}
	if err := VerifyDepthTree(star, 0, 0); err == nil {
		t.Error("depth bound ignored")
	}
	if err := VerifyDepthTree(star, 99, 1); err == nil {
		t.Error("missing root accepted")
	}
	if err := VerifyDepthTree(graph.Ring(6), 0, 10); err == nil {
		t.Error("cycle accepted as tree")
	}
	line := graph.Line(5)
	if err := VerifyDepthTree(line, 0, 4); err != nil {
		t.Errorf("line-as-tree rejected: %v", err)
	}
	if err := VerifyDepthTree(line, 2, 2); err != nil {
		t.Errorf("mid-rooted line rejected: %v", err)
	}
}

func TestVerifyTokenDissemination(t *testing.T) {
	t.Parallel()
	all := []graph.ID{1, 2, 3}
	full := map[graph.ID]map[graph.ID]bool{
		1: {1: true, 2: true, 3: true},
		2: {1: true, 2: true, 3: true},
		3: {1: true, 2: true, 3: true},
	}
	knows := func(node, token graph.ID) bool { return full[node][token] }
	if err := VerifyTokenDissemination(all, knows); err != nil {
		t.Errorf("complete dissemination rejected: %v", err)
	}
	full[2] = map[graph.ID]bool{1: true, 2: true}
	if err := VerifyTokenDissemination(all, knows); err == nil {
		t.Error("missing token accepted")
	}
}

// TestBoundCheck: a measure at its bound passes, one over it fails
// with an error naming the measure, the value and the bound, the first
// in field order wins, and a zero Depth holds no depth.
func TestBoundCheck(t *testing.T) {
	t.Parallel()
	b := Bound{Rounds: 10, Activations: 20, ActivatedEdges: 30, ActivatedDegree: 4, Depth: 2}
	if err := b.Check(b); err != nil {
		t.Errorf("a run at its bound rejected: %v", err)
	}
	for _, tc := range []struct {
		got  Bound
		want string
	}{
		{Bound{Rounds: 11}, "tasks: rounds 11 exceeds the bound 10"},
		{Bound{Activations: 21, ActivatedEdges: 31}, "tasks: total activations 21 exceeds the bound 20"},
		{Bound{ActivatedEdges: 31}, "tasks: max activated edges 31 exceeds the bound 30"},
		{Bound{ActivatedDegree: 5}, "tasks: max activated degree 5 exceeds the bound 4"},
		{Bound{Depth: 3}, "tasks: tree depth 3 exceeds the bound 2"},
	} {
		if err := b.Check(tc.got); err == nil || err.Error() != tc.want {
			t.Errorf("Check(%+v) = %v, want %q", tc.got, err, tc.want)
		}
	}
	noTree := Bound{Rounds: 10}
	if err := noTree.Check(Bound{Rounds: 10, Depth: 99}); err != nil {
		t.Errorf("a bound without a depth target held the depth: %v", err)
	}
	met := temporal.Metrics{Rounds: 1, TotalActivations: 2, MaxActivatedEdges: 3, MaxActivatedDegree: 4, MaxActiveEdges: 99}
	if got := Cost(met); got != (Bound{Rounds: 1, Activations: 2, ActivatedEdges: 3, ActivatedDegree: 4}) {
		t.Errorf("Cost(%+v) = %+v", met, got)
	}
}
