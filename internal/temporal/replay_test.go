package temporal

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"adnet/internal/graph"
)

// recordRun applies randomized rounds to h — algorithm intents, lenient
// or strict, and on some rounds environment edits — and returns every
// committed round's RoundDelta, copied out of the History's scratch.
func recordRun(t *testing.T, rng *rand.Rand, h *History, rounds int) []RoundDelta {
	t.Helper()
	var log []RoundDelta
	for i := 0; i < rounds; i++ {
		act, deact := randomRoundIntents(rng, h)
		if _, err := h.Apply(act, deact); err != nil {
			continue // a rejected round commits nothing and records nothing
		}
		if rng.Intn(3) == 0 {
			ids, edges := h.CurrentView().Nodes(), h.CurrentClone().Edges()
			var envAct, envDeact []graph.Edge
			for j := rng.Intn(3); j > 0; j-- {
				if a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]; a != b {
					envAct = append(envAct, graph.NewEdge(a, b))
				}
			}
			for j := rng.Intn(3); j > 0 && len(edges) > 0; j-- {
				envDeact = append(envDeact, edges[rng.Intn(len(edges))])
			}
			if _, err := h.ApplyEnvironment(envAct, envDeact); err != nil {
				t.Fatalf("round %d: environment: %v", h.Round()-1, err)
			}
		}
		var d RoundDelta
		h.AppendLastDelta(&d)
		log = append(log, RoundDelta{
			Round:         d.Round,
			Activate:      slices.Clone(d.Activate),
			Deactivate:    slices.Clone(d.Deactivate),
			EnvActivate:   slices.Clone(d.EnvActivate),
			EnvDeactivate: slices.Clone(d.EnvDeactivate),
			Stats:         d.Stats,
		})
	}
	return log
}

// TestApplyDeltaReplaysRecordedRuns: replaying a run's deltas on a fresh
// History reproduces its edge set, its Metrics and every round's Stats
// and delta — with environment edits, under lenient activation, and on
// permuted IDs. The replay is strict: what a run committed is legal on
// the snapshot it was committed on.
func TestApplyDeltaReplaysRecordedRuns(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(9000 + seed))
		gs := graph.PermuteIDs(graph.RandomConnected(rng.Intn(20)+8, rng.Intn(8), rng), rng)
		rec := NewHistory(gs)
		rec.SetLenientActivation(seed%2 == 1)
		log := recordRun(t, rng, rec, 30)

		rep := NewHistory(gs)
		for _, d := range log {
			st, err := rep.ApplyDelta(d)
			if err != nil {
				t.Fatalf("seed %d: replay of round %d: %v", seed, d.Round, err)
			}
			var got RoundDelta
			if rep.AppendLastDelta(&got); st != d.Stats || !reflect.DeepEqual(got, d) {
				t.Fatalf("seed %d: replayed round %+v (Apply: %+v), recorded %+v", seed, got, st, d)
			}
		}
		if got, want := rep.CurrentClone().Edges(), rec.CurrentClone().Edges(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: replayed edge set %v, recorded %v", seed, got, want)
		}
		if got, want := rep.Metrics(), rec.Metrics(); got != want {
			t.Fatalf("seed %d: replayed metrics %+v, recorded %+v", seed, got, want)
		}
	}
}

// TestApplyDeltaRejectsMalformed: a delta the History could not have
// exported is an error, never a panic, and commits nothing.
func TestApplyDeltaRejectsMalformed(t *testing.T) {
	t.Parallel()
	for name, d := range map[string]RoundDelta{
		"slot past n":     {Round: 1, Activate: []int32{0, 4}},
		"negative slot":   {Round: 1, Deactivate: []int32{-1, 0}},
		"env slot past n": {Round: 1, EnvActivate: []int32{1, 9}},
		"descending pair": {Round: 1, Deactivate: []int32{1, 0}},
		"odd-length list": {Round: 1, Activate: []int32{0}},
		"odd env list":    {Round: 1, EnvDeactivate: []int32{0, 1, 2}},
		"round gap":       {Round: 2},
		"replayed round":  {Round: 0},
		"distance-2 rule": {Round: 1, Activate: []int32{0, 3}},
		"self-loop":       {Round: 1, Activate: []int32{2, 2}},
		"env self-loop":   {Round: 1, EnvDeactivate: []int32{3, 3}},
		"late bad env":    {Round: 1, Activate: []int32{0, 2}, EnvActivate: []int32{2, 1}},
	} {
		h := NewHistory(graph.Line(4)) // 0-1-2-3; slots equal IDs
		st, err := h.ApplyDelta(d)
		if err == nil {
			t.Errorf("%s: ApplyDelta(%+v) = %+v, want an error", name, d, st)
			continue
		}
		if name == "distance-2 rule" {
			if v := (*Violation)(nil); !errors.As(err, &v) {
				t.Errorf("%s: error %v is not a *Violation", name, err)
			}
		}
		if h.Round() != 1 || h.Metrics() != NewHistory(graph.Line(4)).Metrics() {
			t.Errorf("%s: rejected delta changed the History: round %d, %+v", name, h.Round(), h.Metrics())
		}
	}
}
