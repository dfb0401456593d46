package temporal

import (
	"math/rand"
	"slices"
	"testing"

	"adnet/internal/graph"
)

// aliveModel is the activated-alive accounting kept as a set of edges:
// an algorithm activation of a non-original edge enters it, a
// deactivation of a member — by the algorithm or the environment —
// leaves it, and an environment activation never enters it. env holds
// the non-original edges the environment activated that are alive, so
// the test can tell which cases it covered.
type aliveModel struct {
	initial          *graph.Graph
	alive, env       map[graph.Edge]struct{}
	deg              map[graph.ID]int
	maxEdges, maxDeg int

	// Cases covered so far.
	envAdds, algoCutsEnv, envCutsAlgo, reactivated int
}

func newAliveModel(gs *graph.Graph) *aliveModel {
	return &aliveModel{
		initial: gs,
		alive:   map[graph.Edge]struct{}{},
		env:     map[graph.Edge]struct{}{},
		deg:     map[graph.ID]int{},
	}
}

func (r *aliveModel) bump(e graph.Edge, d int) {
	for _, u := range [2]graph.ID{e.A, e.B} {
		r.deg[u] += d
		r.maxDeg = max(r.maxDeg, r.deg[u])
	}
}

func (r *aliveModel) drop(e graph.Edge) {
	if _, ok := r.alive[e]; ok {
		delete(r.alive, e)
		r.bump(e, -1)
	}
}

// algorithm commits one round's edits made by Apply.
func (r *aliveModel) algorithm(acts, deacts []graph.Edge) {
	for _, e := range acts {
		if r.initial.HasEdge(e.A, e.B) {
			r.reactivated++
			continue
		}
		r.alive[e] = struct{}{}
		r.bump(e, +1)
	}
	for _, e := range deacts {
		if _, ok := r.env[e]; ok {
			delete(r.env, e)
			r.algoCutsEnv++
		}
		r.drop(e)
	}
	r.maxEdges = max(r.maxEdges, len(r.alive))
}

// environment commits the edits made by ApplyEnvironment.
func (r *aliveModel) environment(acts, deacts []graph.Edge) {
	for _, e := range acts {
		if r.initial.HasEdge(e.A, e.B) {
			r.reactivated++
		} else {
			r.env[e] = struct{}{}
			r.envAdds++
		}
	}
	for _, e := range deacts {
		delete(r.env, e)
		if _, ok := r.alive[e]; ok {
			r.envCutsAlgo++
		}
		r.drop(e)
	}
}

// check compares every activated-alive read of h with the model.
func (r *aliveModel) check(t *testing.T, h *History, st RoundStats, buf []graph.Edge) []graph.Edge {
	t.Helper()
	if st.ActivatedAlive != len(r.alive) {
		t.Fatalf("round %d: ActivatedAlive = %d, want %d", st.Round, st.ActivatedAlive, len(r.alive))
	}
	m := h.Metrics()
	if m.MaxActivatedEdges != r.maxEdges || m.FinalActivatedAlive != len(r.alive) || m.MaxActivatedDegree != r.maxDeg {
		t.Fatalf("round %d: metrics max edges %d, final alive %d, max degree %d; want %d, %d, %d",
			st.Round, m.MaxActivatedEdges, m.FinalActivatedAlive, m.MaxActivatedDegree, r.maxEdges, len(r.alive), r.maxDeg)
	}
	for slot := range h.NumNodes() {
		if got, want := h.ActivatedDegreeAtSlot(slot), r.deg[h.IDAtSlot(slot)]; got != want {
			t.Fatalf("round %d: ActivatedDegreeAtSlot(%d) = %d, want %d", st.Round, slot, got, want)
		}
	}
	buf = h.AppendActivatedAlive(buf)
	want := make([]graph.Edge, 0, len(r.alive))
	for e := range r.alive {
		want = append(want, e)
	}
	slices.SortFunc(want, cmpEdge)
	if !slices.Equal(buf, want) {
		t.Fatalf("round %d: AppendActivatedAlive = %v, want %v", st.Round, buf, want)
	}
	if sub := h.ActivatedSubgraph().Edges(); !slices.Equal(sub, want) {
		t.Fatalf("round %d: ActivatedSubgraph = %v, want %v", st.Round, sub, want)
	}
	return buf
}

// randomEnvEdits draws one boundary's environment edits: activations of
// arbitrary pairs, now and then an original edge (a no-op unless it was
// cut), and cuts of active edges of any origin.
func randomEnvEdits(rng *rand.Rand, h *History) (act, deact []graph.Edge) {
	n := h.NumNodes()
	for i, k := 0, rng.Intn(3); i < k; i++ {
		u, v := h.IDAtSlot(rng.Intn(n)), h.IDAtSlot(rng.Intn(n))
		if u != v {
			act = append(act, graph.NewEdge(u, v))
		}
	}
	if rng.Intn(2) == 0 {
		u := h.IDAtSlot(rng.Intn(n))
		orig := h.InitialNeighborsOf(u)
		act = append(act, graph.NewEdge(u, orig[rng.Intn(len(orig))]))
	}
	edges := h.CurrentClone().Edges()
	for i, k := 0, rng.Intn(3); i < k && len(edges) > 0; i++ {
		deact = append(deact, edges[rng.Intn(len(edges))])
	}
	return act, deact
}

// TestActivatedAliveMatchesSetModel runs randomized rounds mixing Apply
// and ApplyEnvironment and holds the History's activated-alive count,
// its envAlive list and the walks over them to the set model after
// every commit. It requires each case where the count and the set
// could part to occur: an environment activation of a non-original
// edge, an algorithm deactivation of such an edge, an environment cut
// of an algorithm-activated edge and the re-activation of a cut
// original edge.
func TestActivatedAliveMatchesSetModel(t *testing.T) {
	t.Parallel()
	var total aliveModel
	var buf []graph.Edge
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(9100 + seed))
		gs := graph.Line(rng.Intn(16) + 8)
		h := NewHistory(gs)
		h.SetLenientActivation(true)
		r := newAliveModel(gs)
		for round := 0; round < 60; round++ {
			act, deact := randomRoundIntents(rng, h)
			st, err := h.Apply(act, deact)
			if err != nil {
				continue // a self-loop: nothing committed
			}
			r.algorithm(h.lastActs, h.lastDeacts)
			buf = r.check(t, h, st, buf)
			if rng.Intn(2) == 0 {
				continue
			}
			eact, edeact := randomEnvEdits(rng, h)
			if st, err = h.ApplyEnvironment(eact, edeact); err != nil {
				t.Fatalf("seed %d round %d: ApplyEnvironment: %v", seed, round, err)
			}
			r.environment(h.lastEnvActs, h.lastEnvDeacts)
			buf = r.check(t, h, st, buf)
		}
		total.envAdds += r.envAdds
		total.algoCutsEnv += r.algoCutsEnv
		total.envCutsAlgo += r.envCutsAlgo
		total.reactivated += r.reactivated
	}
	if total.envAdds == 0 || total.algoCutsEnv == 0 || total.envCutsAlgo == 0 || total.reactivated == 0 {
		t.Fatalf("cases not covered: env adds %d, algorithm cuts of env edges %d, env cuts of algorithm edges %d, original re-activations %d",
			total.envAdds, total.algoCutsEnv, total.envCutsAlgo, total.reactivated)
	}
}
