package temporal

import (
	"strings"
	"testing"

	"adnet/internal/graph"
)

func TestApplyEnvironmentBasic(t *testing.T) {
	t.Parallel()
	h := NewHistory(graph.Line(4)) // 0-1-2-3
	if _, err := h.ApplyEnvironment(nil, nil); err == nil {
		t.Fatalf("ApplyEnvironment before any round accepted")
	}
	if _, err := h.Apply(nil, nil); err != nil {
		t.Fatalf("empty round: %v", err)
	}
	// The environment is not bound by distance-2: {0,3} is at distance
	// 3 and must still commit.
	st, err := h.ApplyEnvironment([]graph.Edge{edge(3, 0)}, []graph.Edge{edge(1, 2)})
	if err != nil {
		t.Fatalf("ApplyEnvironment: %v", err)
	}
	if !h.Active(0, 3) || h.Active(1, 2) {
		t.Fatalf("env edits not committed: active(0,3)=%v active(1,2)=%v", h.Active(0, 3), h.Active(1, 2))
	}
	if st.ActiveEdges != 3 {
		t.Fatalf("patched ActiveEdges = %d, want 3", st.ActiveEdges)
	}
	m := h.Metrics()
	if m.EnvActivations != 1 || m.EnvDeactivations != 1 {
		t.Fatalf("env counters = %d/%d, want 1/1", m.EnvActivations, m.EnvDeactivations)
	}
	// The algorithm's own measures are untouched.
	if m.TotalActivations != 0 || m.TotalDeactivations != 0 {
		t.Fatalf("algorithm counters polluted: %d/%d", m.TotalActivations, m.TotalDeactivations)
	}
}

func TestApplyEnvironmentFilters(t *testing.T) {
	t.Parallel()
	h := NewHistory(graph.Line(3)) // 0-1-2
	if _, err := h.Apply(nil, nil); err != nil {
		t.Fatalf("empty round: %v", err)
	}
	// Activating an active edge and deactivating an inactive one are
	// silent no-ops; duplicates collapse.
	st, err := h.ApplyEnvironment(
		[]graph.Edge{edge(0, 1), edge(0, 2), edge(2, 0)},
		[]graph.Edge{edge(0, 2)})
	if err != nil {
		t.Fatalf("ApplyEnvironment: %v", err)
	}
	if st.ActiveEdges != 3 {
		t.Fatalf("ActiveEdges = %d, want 3 (one real activation)", st.ActiveEdges)
	}
	if m := h.Metrics(); m.EnvActivations != 1 || m.EnvDeactivations != 0 {
		t.Fatalf("env counters = %d/%d, want 1/0", m.EnvActivations, m.EnvDeactivations)
	}
}

func TestApplyEnvironmentErrors(t *testing.T) {
	t.Parallel()
	h := NewHistory(graph.Line(3))
	if _, err := h.Apply(nil, nil); err != nil {
		t.Fatalf("empty round: %v", err)
	}
	if _, err := h.ApplyEnvironment([]graph.Edge{edge(1, 1)}, nil); err == nil || !strings.Contains(err.Error(), "self-loop") {
		t.Fatalf("self-loop activation: %v", err)
	}
	if _, err := h.ApplyEnvironment(nil, []graph.Edge{edge(2, 2)}); err == nil || !strings.Contains(err.Error(), "self-loop") {
		t.Fatalf("self-loop deactivation: %v", err)
	}
	if _, err := h.ApplyEnvironment([]graph.Edge{edge(0, 9)}, nil); err == nil || !strings.Contains(err.Error(), "unknown endpoint") {
		t.Fatalf("unknown endpoint: %v", err)
	}
}

func TestApplyEnvironmentCutRemovesActivatedAlive(t *testing.T) {
	t.Parallel()
	h := NewHistory(graph.Line(4)) // 0-1-2-3
	st, err := h.Apply([]graph.Edge{edge(0, 2), edge(1, 3)}, nil)
	if err != nil || st.ActivatedAlive != 2 {
		t.Fatalf("setup round: %v %+v", err, st)
	}
	if got := h.ActivatedDegreeAtSlot(0); got != 1 {
		t.Fatalf("ActivatedDegreeAtSlot(0) = %d, want 1", got)
	}
	st, err = h.ApplyEnvironment(nil, []graph.Edge{edge(0, 2)})
	if err != nil {
		t.Fatalf("ApplyEnvironment: %v", err)
	}
	// Cutting an algorithm-activated edge removes it from the
	// activated-alive measure: "activated and still active" stays an
	// invariant.
	if st.ActivatedAlive != 1 {
		t.Fatalf("ActivatedAlive = %d, want 1 after env cut", st.ActivatedAlive)
	}
	if got := h.ActivatedDegreeAtSlot(0); got != 0 {
		t.Fatalf("ActivatedDegreeAtSlot(0) = %d, want 0 after env cut", got)
	}
	alive := h.AppendActivatedAlive(nil)
	if len(alive) != 1 || alive[0] != edge(1, 3) {
		t.Fatalf("AppendActivatedAlive = %v, want [{1 3}]", alive)
	}
	// Cutting an original (never algorithm-activated) edge leaves the
	// measure alone.
	st, err = h.ApplyEnvironment(nil, []graph.Edge{edge(2, 3)})
	if err != nil || st.ActivatedAlive != 1 {
		t.Fatalf("original-edge cut: %v %+v", err, st)
	}
	// An edge the environment added never enters the measure, and the
	// algorithm deactivating it does not move the measure either.
	st, err = h.ApplyEnvironment([]graph.Edge{edge(0, 3)}, nil)
	if err != nil || st.ActivatedAlive != 1 {
		t.Fatalf("env activation of {0,3}: %v %+v", err, st)
	}
	st, err = h.Apply(nil, []graph.Edge{edge(0, 3)})
	if err != nil || st.Deactivated != 1 || st.ActivatedAlive != 1 {
		t.Fatalf("algorithm deactivation of env-added {0,3}: %v %+v", err, st)
	}
	if got := h.ActivatedDegreeAtSlot(0); got != 0 {
		t.Fatalf("ActivatedDegreeAtSlot(0) = %d, want 0 after the env edge went", got)
	}
	alive = h.AppendActivatedAlive(alive)
	if len(alive) != 1 || alive[0] != edge(1, 3) {
		t.Fatalf("AppendActivatedAlive = %v, want [{1 3}]", alive)
	}
	if m := h.Metrics(); m.FinalActivatedAlive != 1 || m.MaxActivatedEdges != 2 {
		t.Fatalf("metrics: %+v", m)
	}
}

func TestAppendLastDeltaEnvLists(t *testing.T) {
	t.Parallel()
	h := NewHistory(graph.Line(4))
	if _, err := h.Apply([]graph.Edge{edge(0, 2)}, nil); err != nil {
		t.Fatalf("round 1: %v", err)
	}
	if _, err := h.ApplyEnvironment([]graph.Edge{edge(1, 3)}, []graph.Edge{edge(2, 3)}); err != nil {
		t.Fatalf("env: %v", err)
	}
	var d RoundDelta
	h.AppendLastDelta(&d)
	if d.Round != 1 {
		t.Fatalf("Round = %d, want 1", d.Round)
	}
	if len(d.Activate) != 2 || len(d.EnvActivate) != 2 || len(d.EnvDeactivate) != 2 {
		t.Fatalf("delta lists: %+v", d)
	}
	// A no-edit round must export empty env lists (round-aligned).
	if _, err := h.Apply(nil, nil); err != nil {
		t.Fatalf("round 2: %v", err)
	}
	if _, err := h.ApplyEnvironment(nil, nil); err != nil {
		t.Fatalf("empty env: %v", err)
	}
	h.AppendLastDelta(&d)
	if d.Round != 2 || len(d.EnvActivate) != 0 || len(d.EnvDeactivate) != 0 {
		t.Fatalf("empty-round delta: %+v", d)
	}
}

func TestLenientActivationRelaxesDistance2(t *testing.T) {
	t.Parallel()
	// Strict mode: distance-3 activation is a violation (covered
	// elsewhere). Lenient mode voids it instead — the round commits
	// with the bad intent dropped.
	h := NewHistory(graph.Line(4))
	h.SetLenientActivation(true)
	st, err := h.Apply([]graph.Edge{edge(0, 3)}, nil)
	if err != nil {
		t.Fatalf("lenient distance-3: %v", err)
	}
	if st.Activated != 0 || h.Active(0, 3) {
		t.Fatalf("lenient distance-3 should be voided, not committed: %+v", st)
	}
	// Self-loops stay violations even in lenient mode.
	if _, err := h.Apply([]graph.Edge{edge(2, 2)}, nil); err == nil {
		t.Fatalf("lenient self-loop accepted")
	}
}
