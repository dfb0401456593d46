// Package bounds instruments the paper's lower-bound machinery (§6,
// Appendix D): the potential function PO_{u,v} of Definition D.1 and a
// knowledge-propagation tracker, used to demonstrate empirically that
//
//   - Ω(log n) rounds are unavoidable on the spanning line (Lemma 6.1):
//     the potential drops by at most a factor ~2 plus 1 per round;
//   - O(log n)-time centralized strategies pay Ω(n) activations
//     (Lemma 6.2);
//   - distributed algorithms pay Ω(n log n) activations on the
//     increasing-order ring (Theorem 6.4).
package bounds

import (
	"errors"

	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/temporal"
)

// KnowledgeTracker follows which UIDs each node can possibly have
// learned, assuming maximally generous information flow: every message
// transfers the sender's entire knowledge set. This upper-bounds any
// real algorithm's knowledge, which is exactly what a lower-bound
// argument needs.
type KnowledgeTracker struct {
	// knows[w] is the set of UIDs node w can know, next[w] the same set
	// with the current round's messages folded in; both are indexed by
	// node ID (O(MaxID), like the graph's tables) and equal between
	// rounds.
	knows, next []graph.IDSet
}

// NewKnowledgeTracker initializes each node knowing only its own UID.
func NewKnowledgeTracker(nodes []graph.ID) *KnowledgeTracker {
	size := 0
	for _, u := range nodes {
		size = max(size, int(u)+1)
	}
	k := &KnowledgeTracker{knows: make([]graph.IDSet, size), next: make([]graph.IDSet, size)}
	for _, u := range nodes {
		k.knows[u].Add(u)
		k.next[u].Add(u)
	}
	return k
}

// Hook returns a sim.WithRoundHook callback that advances the tracker
// with every delivered message.
func (k *KnowledgeTracker) Hook() func(sim.RoundEvent) {
	return func(ev sim.RoundEvent) {
		// Transfer snapshots: messages within one round carry the
		// sender's knowledge from the round start, so the round is
		// folded into next while knows stays what the senders had, and
		// the receivers' knows catch up once every message is in.
		for _, msg := range ev.Messages {
			k.next[msg.To].Merge(k.knows[msg.From], nil)
		}
		for _, msg := range ev.Messages {
			k.knows[msg.To].CopyFrom(k.next[msg.To])
		}
	}
}

// Knows reports whether node w can possibly know UID u.
func (k *KnowledgeTracker) Knows(w, u graph.ID) bool {
	return int(w) < len(k.knows) && k.knows[w].Has(u)
}

// Holders returns all nodes that can know UID u, ascending.
func (k *KnowledgeTracker) Holders(u graph.ID) []graph.ID {
	var out []graph.ID
	for w, set := range k.knows {
		if set.Has(u) {
			out = append(out, graph.ID(w))
		}
	}
	return out
}

// Potential computes PO_{u,v} (Definition D.1) over the current
// snapshot: the minimum distance from any node that knows UID u to
// node v. It returns -1 if no holder can reach v.
func Potential(h *temporal.History, k *KnowledgeTracker, u, v graph.ID) int {
	dist := h.CurrentView().BFS(v)
	best := -1
	for _, w := range k.Holders(u) {
		if d, ok := dist[w]; ok && (best < 0 || d < best) {
			best = d
		}
	}
	return best
}

// PotentialSeries runs the machine on gs while recording PO_{u,v}
// after every round; it returns the series (index 0 = initial
// potential) together with the run result. Each round the engine
// calls the round hook (the message flow advances the tracker) and
// then the delta hook, which replays the round onto a History of its
// own (History.ApplyDelta) and closes the round's entry.
func PotentialSeries(gs *graph.Graph, factory sim.Factory, u, v graph.ID,
	opts ...sim.Option) ([]int, *sim.Result, error) {
	tracker := NewKnowledgeTracker(gs.Nodes())
	replay := temporal.NewHistory(gs)
	series := []int{Potential(replay, tracker, u, v)}
	var replayErr error
	opts = append(opts,
		sim.WithRoundHook(tracker.Hook()),
		sim.WithDeltaHook(func(d temporal.RoundDelta) {
			if _, err := replay.ApplyDelta(d); err != nil && replayErr == nil {
				replayErr = err
			}
			series = append(series, Potential(replay, tracker, u, v))
		}))
	res, err := sim.Run(gs, factory, opts...)
	if err = errors.Join(err, replayErr); err != nil {
		return nil, res, err
	}
	return series, res, nil
}

// MinPotentialDropFactor examines a potential series and returns the
// largest per-round shrink factor observed, i.e. max over rounds of
// PO(i) / PO(i+1) ignoring the additive-1 information step. A
// factor bounded by ~2 across every round is the mechanism behind the
// Ω(log n) time lower bound of Lemma 6.1: halving per round is the
// best any strategy can do.
func MinPotentialDropFactor(series []int) float64 {
	worst := 1.0
	for i := 0; i+1 < len(series); i++ {
		cur, next := series[i], series[i+1]
		if cur <= 0 || next <= 0 {
			continue
		}
		f := float64(cur) / float64(next)
		if f > worst {
			worst = f
		}
	}
	return worst
}
