package temporal

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"adnet/internal/graph"
)

// TestApplyRandomRoundsDigest pins Apply's outcome over randomized
// rounds — duplicate intents, disagreements, self-loops and distance-2
// violations included — as one digest of every round's error or stats
// and delta, and every seed's final metrics. A change to validation,
// no-op filtering, disagreement handling or commit order moves it.
func TestApplyRandomRoundsDigest(t *testing.T) {
	t.Parallel()
	const want = "4001ef744fe0f55e"
	hsh := fnv.New64a()
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		n := rng.Intn(24) + 8
		h := NewHistory(graph.Line(n))
		for round := 0; round < 40; round++ {
			act, deact := randomRoundIntents(rng, h)
			stats, err := h.Apply(act, deact)
			if err != nil {
				fmt.Fprintf(hsh, "e%v|", err)
				continue
			}
			fmt.Fprintf(hsh, "%+v %+v|", stats, lastDelta(h))
		}
		fmt.Fprintf(hsh, "m%+v|", h.Metrics())
	}
	if got := fmt.Sprintf("%016x", hsh.Sum64()); got != want {
		t.Fatalf("Apply digest = %s, want %s", got, want)
	}
}

// randomRoundIntents builds one round of intents from h's snapshot:
// mostly legal distance-2 activations and active-edge deactivations,
// with duplicates and occasional disagreements, plus (in ~1/8 of
// rounds) a deliberate violation to exercise the error path.
func randomRoundIntents(rng *rand.Rand, h *History) (act, deact []graph.Edge) {
	ids := h.CurrentView().Nodes()
	for i, tries := 0, rng.Intn(8); i < tries; i++ {
		u := ids[rng.Intn(len(ids))]
		cands := h.PotentialNeighbors(u)
		if len(cands) == 0 {
			continue
		}
		w := cands[rng.Intn(len(cands))]
		act = append(act, graph.NewEdge(u, w))
		if rng.Intn(4) == 0 {
			act = append(act, graph.NewEdge(w, u)) // duplicate from the other endpoint
		}
		if rng.Intn(5) == 0 {
			deact = append(deact, graph.NewEdge(u, w)) // disagreement
		}
	}
	edges := h.CurrentClone().Edges()
	for i, tries := 0, rng.Intn(4); i < tries && len(edges) > 0; i++ {
		deact = append(deact, edges[rng.Intn(len(edges))])
	}
	if rng.Intn(8) == 0 {
		// A violation: self-loop or a distant pair.
		u := ids[rng.Intn(len(ids))]
		if rng.Intn(2) == 0 {
			act = append(act, graph.Edge{A: u, B: u})
		} else {
			// The line's endpoints are at distance n-1 > 2 for n >= 8
			// unless earlier rounds shortened it; only inject when
			// it is actually illegal right now.
			a, b := ids[0], ids[len(ids)-1]
			if !h.Active(a, b) && !h.CurrentClone().HaveCommonNeighbor(a, b) {
				act = append(act, graph.NewEdge(a, b))
			}
		}
	}
	return act, deact
}

// TestApplyCommitsInPlace: Apply canonicalizes, sorts and filters its
// arguments where they lie, and on success their prefixes are the
// round's committed delta — the lists AppendLastDelta exports.
func TestApplyCommitsInPlace(t *testing.T) {
	t.Parallel()
	h := NewHistory(graph.Line(6)) // 0-1-2-3-4-5
	act := []graph.Edge{{A: 4, B: 2}, {A: 1, B: 0}, {A: 2, B: 0}, {A: 0, B: 2}, {A: 5, B: 3}}
	deact := []graph.Edge{{A: 5, B: 4}, {A: 3, B: 5}, {A: 2, B: 1}, {A: 4, B: 5}}
	st, err := h.Apply(act, deact)
	if err != nil {
		t.Fatal(err)
	}
	// {0,1} is a no-op, {3,5} a disagreement, {0,2} a duplicate.
	wantAct := []graph.Edge{edge(0, 2), edge(2, 4)}
	wantDeact := []graph.Edge{edge(1, 2), edge(4, 5)}
	if st.Activated != len(wantAct) || st.Deactivated != len(wantDeact) {
		t.Fatalf("stats %+v, want %d activated and %d deactivated", st, len(wantAct), len(wantDeact))
	}
	if got := act[:st.Activated]; !slices.Equal(got, wantAct) {
		t.Errorf("activate prefix = %v, want %v", got, wantAct)
	}
	if got := deact[:st.Deactivated]; !slices.Equal(got, wantDeact) {
		t.Errorf("deactivate prefix = %v, want %v", got, wantDeact)
	}
	want := roundEdits{1, []int32{0, 2, 2, 4}, []int32{1, 2, 4, 5}, nil, nil}
	if got := lastDelta(h); !reflect.DeepEqual(got, want) {
		t.Errorf("last delta = %+v, want %+v", got, want)
	}
}

// TestApplyNoOpActivationCancelsDeactivation: a request to activate an
// edge that is already active commits nothing, but it still disagrees
// with the other endpoint's deactivation, so the edge stays active.
func TestApplyNoOpActivationCancelsDeactivation(t *testing.T) {
	t.Parallel()
	for _, lenient := range []bool{false, true} {
		h := NewHistory(graph.Line(3)) // 0-1-2
		h.SetLenientActivation(lenient)
		st, err := h.Apply([]graph.Edge{edge(0, 1)}, []graph.Edge{{A: 1, B: 0}, edge(1, 2)})
		if err != nil {
			t.Fatal(err)
		}
		if !h.Active(0, 1) || h.Active(1, 2) || st.Activated != 0 || st.Deactivated != 1 {
			t.Errorf("lenient=%v: {0,1} active %v, {1,2} active %v, stats %+v; want {0,1} kept and only {1,2} cut",
				lenient, h.Active(0, 1), h.Active(1, 2), st)
		}
	}
}

// TestApplyLenientVoidActivationCancelsDeactivation: under lenient
// activation an activation without a common neighbour is void, not a
// violation, and it still counts as the raw request that cancels a
// deactivation of its edge; the rest of the round commits.
func TestApplyLenientVoidActivationCancelsDeactivation(t *testing.T) {
	t.Parallel()
	h := NewHistory(graph.Line(5)) // 0-1-2-3-4
	h.SetLenientActivation(true)
	st, err := h.Apply(
		[]graph.Edge{{A: 3, B: 0}, edge(2, 4)},
		[]graph.Edge{edge(0, 3), edge(0, 1)},
	)
	if err != nil {
		t.Fatalf("void activation under lenient rule: %v", err)
	}
	want := roundEdits{1, []int32{2, 4}, []int32{0, 1}, nil, nil}
	if got := lastDelta(h); !reflect.DeepEqual(got, want) || st.Activated != 1 || st.Deactivated != 1 {
		t.Errorf("delta %+v stats %+v, want %+v", got, st, want)
	}
	if h.Active(0, 3) {
		t.Error("void activation of {0,3} committed")
	}
}

// TestApplyLateViolationKeepsCallerOrientation: the first violation in
// caller order is reported as the caller wrote the edge, although the
// entries before it were already canonicalized, and the round commits
// nothing.
func TestApplyLateViolationKeepsCallerOrientation(t *testing.T) {
	t.Parallel()
	h := NewHistory(graph.Line(6)) // 0-1-2-3-4-5
	act := []graph.Edge{{A: 2, B: 0}, {A: 1, B: 0}, {A: 5, B: 1}, {A: 5, B: 0}}
	_, err := h.Apply(act, []graph.Edge{edge(1, 2)})
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("distance-4 activation accepted, err = %v", err)
	}
	if want := (graph.Edge{A: 5, B: 1}); v.Edge != want || v.Op != "activate" || v.Round != 1 {
		t.Errorf("violation %+v, want activate of %v in round 1", v, want)
	}
	if h.Round() != 1 || h.Active(0, 2) || !h.Active(1, 2) || h.Metrics() != (Metrics{MaxActiveEdges: 5, FinalActiveEdges: 5}) {
		t.Errorf("a refused round committed: round %d, metrics %+v", h.Round(), h.Metrics())
	}
}
