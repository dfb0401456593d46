package dynamics

import (
	"math/rand"
	"slices"

	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/temporal"
)

// churnSchedule flips k random underlay edges per round. Each flip
// draws an unordered node pair: an inactive pair is activated, an
// active edge is cut. With preserve, a cut that would disconnect the
// graph is skipped (the flip is spent) — the Casteigts-style
// "always-connected" temporal class.
type churnSchedule struct {
	k        int
	preserve bool
	n        int
	rng      *rand.Rand
	work     *graph.Graph // preserve: working copy tracking this round's edits
	bfs      graph.BFSScratch
}

func (c *churnSchedule) Class() string { return ClassEdgeChurn }

func (c *churnSchedule) Reset(n int, rng *rand.Rand) {
	c.n, c.rng = n, rng
}

func (c *churnSchedule) Perturb(round int, hist *temporal.History, edits *sim.EnvEdits) {
	if c.n < 2 {
		return
	}
	view := hist.CurrentView()
	if c.preserve {
		// The connectivity probe must see this round's earlier edits
		// too: two individually-safe cuts can jointly disconnect.
		if c.work == nil {
			c.work = graph.New()
		}
		c.work.CopyCanonicalFrom(view)
	}
	for f := 0; f < c.k; f++ {
		u := hist.IDAtSlot(c.rng.Intn(c.n))
		v := hist.IDAtSlot(c.rng.Intn(c.n))
		if u == v {
			continue
		}
		if !c.preserve {
			if view.HasEdge(u, v) {
				edits.Deactivate = append(edits.Deactivate, graph.NewEdge(u, v))
			} else {
				edits.Activate = append(edits.Activate, graph.NewEdge(u, v))
			}
			continue
		}
		if c.work.HasEdge(u, v) {
			c.work.RemoveEdge(u, v)
			if !c.bfs.IsConnected(c.work) {
				c.work.MustAddEdge(u, v) // unsafe cut: skip the flip
				continue
			}
			edits.Deactivate = append(edits.Deactivate, graph.NewEdge(u, v))
		} else {
			c.work.MustAddEdge(u, v)
			edits.Activate = append(edits.Activate, graph.NewEdge(u, v))
		}
	}
}

// burstSchedule is churn gated by a quiet/storm cycle: quiet calm
// rounds, then storm rounds of churn, repeating.
type burstSchedule struct {
	churnSchedule
	quiet, storm int
}

func (b *burstSchedule) Class() string { return ClassBurst }

func (b *burstSchedule) Perturb(round int, hist *temporal.History, edits *sim.EnvEdits) {
	cycle := b.quiet + b.storm
	if (round-1)%cycle < b.quiet {
		return
	}
	b.churnSchedule.Perturb(round, hist, edits)
}

// targetedCutSchedule cuts, each round, the k activated-alive edges
// whose endpoint activated-degrees sum highest — it dismantles the
// algorithm's own construction where it is most load-bearing. It draws
// no randomness: the schedule is a pure function of the History.
type targetedCutSchedule struct {
	k    int
	cand []graph.Edge
}

func (t *targetedCutSchedule) Class() string { return ClassTargetedCut }

func (t *targetedCutSchedule) Reset(n int, rng *rand.Rand) {}

func (t *targetedCutSchedule) Perturb(round int, hist *temporal.History, edits *sim.EnvEdits) {
	t.cand = hist.AppendActivatedAlive(t.cand)
	if len(t.cand) == 0 {
		return
	}
	score := func(e graph.Edge) int {
		sa, _ := hist.SlotOf(e.A)
		sb, _ := hist.SlotOf(e.B)
		return hist.ActivatedDegreeAtSlot(sa) + hist.ActivatedDegreeAtSlot(sb)
	}
	// Highest score first; AppendActivatedAlive's canonical order breaks
	// ties, keeping the cut deterministic.
	slices.SortStableFunc(t.cand, func(a, b graph.Edge) int {
		return score(b) - score(a)
	})
	k := t.k
	if k > len(t.cand) {
		k = len(t.cand)
	}
	edits.Deactivate = append(edits.Deactivate, t.cand[:k]...)
}

// crashSchedule injects node outages in waves: once every node is back
// up, it takes k random nodes down for down rounds. reboot selects the
// restart semantics the engine applies (rebuild vs resume).
type crashSchedule struct {
	k, down int
	reboot  bool
	n       int
	rng     *rand.Rand
	downAt  []int // slot → boundaries remaining down (0 = up)
}

func (c *crashSchedule) Class() string { return ClassCrash }

func (c *crashSchedule) Reset(n int, rng *rand.Rand) {
	c.n, c.rng = n, rng
	if cap(c.downAt) < n {
		c.downAt = make([]int, n)
	} else {
		c.downAt = c.downAt[:n]
		clear(c.downAt)
	}
}

func (c *crashSchedule) Perturb(round int, hist *temporal.History, edits *sim.EnvEdits) {
	edits.Reboot = c.reboot
	// Age running outages; slots reaching zero restart at this boundary.
	stillDown := 0
	for s := range c.downAt {
		if c.downAt[s] == 0 {
			continue
		}
		c.downAt[s]--
		if c.downAt[s] == 0 {
			edits.Restart = append(edits.Restart, int32(s))
		} else {
			stillDown++
		}
	}
	// A new wave launches only after the previous one fully healed,
	// with one calm boundary in between (the restart round itself).
	if stillDown > 0 || len(edits.Restart) > 0 {
		return
	}
	k := c.k
	if k > c.n-1 {
		k = c.n - 1 // at least one node always stays up
	}
	for picked, tries := 0, 0; picked < k && tries < 20*k+20; tries++ {
		s := c.rng.Intn(c.n)
		if c.downAt[s] != 0 {
			continue
		}
		c.downAt[s] = c.down
		edits.Crash = append(edits.Crash, int32(s))
		picked++
	}
}
