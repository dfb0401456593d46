package expt

import (
	"strings"
	"testing"

	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/tasks"
	"adnet/internal/temporal"
)

// TestVerdict judges hand-built final graphs and elections on five
// nodes, u_max = 4: each failure has its own message, an entry without
// a depth target accepts any graph, a run past its bound's other
// measures is not a wrong run, and on a run the environment acted on
// the verdict is data — LeaderOK — and the tree half is skipped.
func TestVerdict(t *testing.T) {
	t.Parallel()
	const umax = 4
	final := func(edges ...[2]graph.ID) *graph.Graph {
		g := graph.New()
		for id := graph.ID(0); id <= umax; id++ {
			g.AddNode(id)
		}
		for _, e := range edges {
			g.MustAddEdge(e[0], e[1])
		}
		return g
	}
	star := [][2]graph.ID{{0, 4}, {1, 4}, {2, 4}, {3, 4}}
	ring := [][2]graph.ID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	elected := tasks.Election{Leader: umax, Leaders: 1}
	// depth1 bounds every measure but the depth at 0, which each run
	// below exceeds in rounds.
	depth1 := func(int) tasks.Bound { return tasks.Bound{Depth: 1} }
	for _, tc := range []struct {
		name     string
		final    *graph.Graph
		elect    tasks.Election
		bound    func(int) tasks.Bound
		acted    bool   // the environment crashed a node during the run
		want     string // the error's message; "" passes
		leaderOK bool
	}{
		{"star at u_max", final(star...), elected, depth1, false, "", true},
		{"extra edge", final(append(star, [2]graph.ID{0, 1})...), elected, depth1, false, "final graph has 5 edges, a spanning tree of 5 nodes has 4", false},
		{"disconnected", final([2]graph.ID{0, 1}, [2]graph.ID{1, 2}, [2]graph.ID{2, 0}, [2]graph.ID{3, 4}), elected, depth1, false, "final graph is disconnected from the root", false},
		{"depth over target", final(ring[:4]...), elected, depth1, false, "tree depth 4 exceeds 1", false},
		{"wrong leader", final(star...), tasks.Election{Leader: 3, Leaders: 1}, depth1, false, "leader is 3, want u_max = 4", false},
		{"undecided node", final(star...), tasks.Election{Leader: umax, Leaders: 1, Undecided: 1}, depth1, false, "1 nodes never decided", false},
		{"no target accepts a ring", final(ring...), elected, func(int) tasks.Bound { return tasks.Bound{} }, false, "", true},
		{"environment acted: tree skipped", final(ring...), elected, depth1, true, "", true},
		{"environment acted: leader half is data", final(ring...), tasks.Election{Leader: 3, Leaders: 1}, depth1, true, "", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			a := &algorithm{name: "probe", bound: tc.bound}
			in := Outcome{N: umax + 1, Rounds: 7}
			if tc.acted {
				in.Crashes = 1
			}
			out, err := a.judge(new(graph.BFSScratch), in, temporal.Metrics{}, tc.final, umax, tc.elect)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), "expt: probe on n=5: unverified: tasks: "+tc.want)):
				t.Fatalf("error %v, want one naming %q", err, tc.want)
			case err == nil && out.LeaderOK != tc.leaderOK:
				t.Fatalf("LeaderOK %v, want %v", out.LeaderOK, tc.leaderOK)
			case err != nil && (failureKind(err) != sim.Unverified || out.N != umax+1 || out.LeaderOK):
				t.Fatalf("error %v with outcome %+v, want an unverified failure beside the measured outcome, LeaderOK false", err, out)
			}
		})
	}
}
