package temporal

import (
	"math/rand"
	"reflect"
	"testing"

	"adnet/internal/graph"
)

// roundEdits is a RoundDelta without its Stats: the round and its four
// slot-pair lists. Tests take a round's stats from what Apply returned.
type roundEdits struct {
	Round                                            int
	Activate, Deactivate, EnvActivate, EnvDeactivate []int32
}

// lastDelta returns the edits of the round h applied last, all four
// lists copied out of the History's scratch (an empty list comes back
// nil, so edits compare with reflect.DeepEqual).
func lastDelta(h *History) roundEdits {
	var d RoundDelta
	h.AppendLastDelta(&d)
	return roundEdits{d.Round, d.Activate, d.Deactivate, d.EnvActivate, d.EnvDeactivate}
}

// pairsSorted reports whether the flat slot pairs are canonical edges
// (a < b) in strictly ascending order.
func pairsSorted(ps []int32) bool {
	for i := 0; i+1 < len(ps); i += 2 {
		if ps[i] >= ps[i+1] {
			return false
		}
		if i > 0 && (ps[i-2] > ps[i] || (ps[i-2] == ps[i] && ps[i-1] >= ps[i+1])) {
			return false
		}
	}
	return true
}

// TestTraceRoundDeterministicOrder is the regression test for the
// nondeterministic trace order bug: Apply used to range over intent
// maps, so a round's committed edges came back in a random order
// across runs. The round's delta must be in ascending canonical edge
// order, and identical no matter how callers permute their intent
// slices.
func TestTraceRoundDeterministicOrder(t *testing.T) {
	t.Parallel()
	n := 64
	baseActs := func() []graph.Edge {
		var acts []graph.Edge
		// Chords {u, u+2} are legal on a ring via the common neighbor u+1.
		for u := 0; u < n; u++ {
			acts = append(acts, graph.NewEdge(graph.ID(u), graph.ID((u+2)%n)))
		}
		return acts
	}

	var want []int32
	for trial := 0; trial < 10; trial++ {
		h := NewHistory(graph.Ring(n))
		acts := baseActs()
		rng := rand.New(rand.NewSource(int64(trial)))
		rng.Shuffle(len(acts), func(i, j int) { acts[i], acts[j] = acts[j], acts[i] })
		if _, err := h.Apply(acts, nil); err != nil {
			t.Fatalf("trial %d: Apply: %v", trial, err)
		}
		d1 := lastDelta(h)
		// Deactivate a shuffled half of them in round 2.
		deacts := acts[:len(acts)/2]
		if _, err := h.Apply(nil, deacts); err != nil {
			t.Fatalf("trial %d: Apply deacts: %v", trial, err)
		}

		d2 := lastDelta(h)
		if d1.Round != 1 || d2.Round != 2 {
			t.Fatalf("trial %d: delta rounds = %d, %d", trial, d1.Round, d2.Round)
		}
		if len(d1.Activate) != 2*n || len(d1.Deactivate) != 0 {
			t.Fatalf("trial %d: round 1 delta = %+v, want %d activations only", trial, d1, n)
		}
		if !pairsSorted(d1.Activate) {
			t.Fatalf("trial %d: round-1 delta not in canonical order: %v", trial, d1.Activate)
		}
		if len(d2.Deactivate) != n || len(d2.Activate) != 0 {
			t.Fatalf("trial %d: round 2 delta = %+v, want %d deactivations only", trial, d2, n/2)
		}
		if !pairsSorted(d2.Deactivate) {
			t.Fatalf("trial %d: round-2 deactivation delta not sorted: %v", trial, d2.Deactivate)
		}
		if trial == 0 {
			want = d1.Activate
			continue
		}
		if !reflect.DeepEqual(d1.Activate, want) {
			t.Fatalf("trial %d: delta differs across permutations:\n got %v\nwant %v", trial, d1.Activate, want)
		}
	}
}

// TestApplyScratchReuseIsolation checks that the reusable scratch
// buffers never leak state between rounds: a round's stats and delta
// must be unaffected by what previous rounds requested.
func TestApplyScratchReuseIsolation(t *testing.T) {
	t.Parallel()
	h := NewHistory(graph.Line(8))
	// Round 1: activate {0,2} and {1,3}, with duplicates.
	acts := []graph.Edge{graph.NewEdge(0, 2), graph.NewEdge(1, 3), graph.NewEdge(2, 0)}
	st, err := h.Apply(acts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Activated != 2 {
		t.Fatalf("round 1 activated = %d, want 2", st.Activated)
	}
	if d := lastDelta(h); !reflect.DeepEqual(d, roundEdits{Round: 1, Activate: []int32{0, 2, 1, 3}}) {
		t.Fatalf("round 1 delta = %+v", d)
	}
	// Round 2: no intents at all — nothing from round 1 may bleed in.
	st, err = h.Apply(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Activated != 0 || st.Deactivated != 0 {
		t.Fatalf("round 2 stats = %+v, want no activity", st)
	}
	if d := lastDelta(h); !reflect.DeepEqual(d, roundEdits{Round: 2}) {
		t.Fatalf("round 2 delta = %+v, want empty", d)
	}
	// Round 3: disagreement — {0,2} requested both ways stays active.
	st, err = h.Apply([]graph.Edge{graph.NewEdge(0, 2)}, []graph.Edge{graph.NewEdge(0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Activated != 0 || st.Deactivated != 0 {
		t.Fatalf("disagreement round stats = %+v, want no activity", st)
	}
	if d := lastDelta(h); !reflect.DeepEqual(d, roundEdits{Round: 3}) {
		t.Fatalf("disagreement round delta = %+v, want empty", d)
	}
	if !h.Active(0, 2) {
		t.Fatal("edge {0,2} should have survived the disagreement round")
	}
}
