package core

import (
	"testing"

	"adnet/internal/graph"
	"adnet/internal/sim"
)

// newTestWreath builds a bare machine for white-box admission tests.
func newTestWreath(self graph.ID, admitCap int) *GraphToWreath {
	return &GraphToWreath{
		selfID:   self,
		n:        16,
		branch:   2,
		admitCap: admitCap,
		leader:   self,
		cw:       self,
		ccw:      self,
		parent:   self,
	}
}

func rev(from graph.ID, tail graph.ID, hosting bool) sim.Message {
	return sim.Message{From: from, Payload: &wTailRev{Tail: tail, Hosting: hosting}}
}

func TestAdmissionSortsByUIDDescending(t *testing.T) {
	t.Parallel()
	m := newTestWreath(100, 0)
	m.rawReqs = []wAttachEnv{{From: 3, UID: 3}, {From: 9, UID: 9}, {From: 5, UID: 5}}
	m.finalizeAdmissions([]sim.Message{rev(3, 3, false), rev(9, 9, false), rev(5, 5, false)})
	if len(m.attachers) != 3 {
		t.Fatalf("admitted %d, want 3", len(m.attachers))
	}
	want := []graph.ID{9, 5, 3}
	for i, a := range m.attachers {
		if a.From != want[i] {
			t.Fatalf("order %v, want %v", m.attachers, want)
		}
	}
	if m.danglerLast {
		t.Fatal("no dangler expected")
	}
}

func TestAdmissionCapRejectsOverflow(t *testing.T) {
	t.Parallel()
	m := newTestWreath(100, 1)
	m.rawReqs = []wAttachEnv{{From: 3, UID: 3}, {From: 9, UID: 9}}
	m.finalizeAdmissions([]sim.Message{rev(3, 3, false), rev(9, 9, false)})
	if len(m.attachers) != 1 || m.attachers[0].From != 9 {
		t.Fatalf("admitted %v, want just 9", m.attachers)
	}
	if len(m.rejectedReqs) != 1 || m.rejectedReqs[0].From != 3 {
		t.Fatalf("rejected %v, want just 3", m.rejectedReqs)
	}
}

func TestAdmissionMissingRevisionRejected(t *testing.T) {
	t.Parallel()
	m := newTestWreath(100, 0)
	m.rawReqs = []wAttachEnv{{From: 3, UID: 3}}
	m.finalizeAdmissions(nil)
	if len(m.attachers) != 0 || len(m.rejectedReqs) != 1 {
		t.Fatalf("attacher without revision must be rejected: %v %v", m.attachers, m.rejectedReqs)
	}
}

func TestAdmissionTailConflictRule(t *testing.T) {
	t.Parallel()
	// The host's committee selected through border 7, and the host's
	// cw pointer is exactly 7: hosting would double-book the cut edge.
	m := newTestWreath(100, 0)
	m.cw = 7
	m.decided = true
	m.decision = wDecision{Selected: true, BorderX: 7}
	m.rawReqs = []wAttachEnv{{From: 3, UID: 3}}
	m.finalizeAdmissions([]sim.Message{rev(3, 3, false)})
	if len(m.attachers) != 0 || len(m.rejectedReqs) != 1 {
		t.Fatalf("tail-conflict attacher must be rejected")
	}
}

func TestAdmissionHostingAttacherOnlyAtPathEnd(t *testing.T) {
	t.Parallel()
	// A mid-ring host (cw points elsewhere) must reject hosting
	// attachers: their ear tail is still in flux.
	m := newTestWreath(100, 0)
	m.cw, m.ccw = 50, 51
	m.rawReqs = []wAttachEnv{{From: 3, UID: 3}}
	m.finalizeAdmissions([]sim.Message{rev(3, 3, true)})
	if len(m.attachers) != 0 {
		t.Fatalf("mid-ring host admitted a hosting attacher")
	}

	// A path-end host (singleton) admits exactly one, placed last,
	// with the dangler flag.
	m2 := newTestWreath(100, 0)
	m2.rawReqs = []wAttachEnv{
		{From: 3, UID: 3}, {From: 9, UID: 9}, {From: 5, UID: 5},
	}
	m2.finalizeAdmissions([]sim.Message{rev(3, 3, true), rev(9, 9, true), rev(5, 5, false)})
	if len(m2.attachers) != 2 {
		t.Fatalf("admitted %v, want settled 5 + dangler 9", m2.attachers)
	}
	if m2.attachers[0].From != 5 || m2.attachers[1].From != 9 {
		t.Fatalf("order %v, want [5 9]", m2.attachers)
	}
	if !m2.danglerLast {
		t.Fatal("dangler flag missing")
	}
	if len(m2.rejectedReqs) != 1 || m2.rejectedReqs[0].From != 3 {
		t.Fatalf("hosting attacher 3 should be rejected: %v", m2.rejectedReqs)
	}
}

func TestAdmissionRejectsRingSlotOccupants(t *testing.T) {
	t.Parallel()
	// Degenerate geometry: the attacher (or its tail) already sits in
	// one of our ring slots.
	m := newTestWreath(100, 0)
	m.cw, m.ccw = 3, 51
	m.rawReqs = []wAttachEnv{{From: 3, UID: 3}, {From: 9, UID: 9}}
	m.finalizeAdmissions([]sim.Message{rev(3, 3, false), rev(9, 51, false)})
	if len(m.attachers) != 0 {
		t.Fatalf("degenerate attachers admitted: %v", m.attachers)
	}
	if len(m.rejectedReqs) != 2 {
		t.Fatalf("rejected %v, want both", m.rejectedReqs)
	}
}

func TestWreathOnIncreasingRingBootstrap(t *testing.T) {
	t.Parallel()
	// The adversarial singleton-chain case: every node's max neighbor
	// is its successor. The path-composition rule must merge the whole
	// chain in few phases rather than serializing, see
	// DESIGN.md § "GraphToWreath and GraphToThinWreath (§4, §5)".
	for _, n := range []int{16, 48, 96} {
		g := graph.IncreasingRing(n)
		res, err := sim.Run(g, NewGraphToWreathFactory(),
			sim.WithMaxRounds(WreathMaxRounds(n, 2)), sim.WithConnectivityCheck())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		phases := res.Rounds / WreathPhaseLength(n, 2)
		if phases > 8 {
			t.Errorf("n=%d: %d phases — the singleton chain serialized", n, phases)
		}
	}
}

func TestWreathAblationAdmitCap(t *testing.T) {
	t.Parallel()
	// Tighter admission must never break correctness, only defer
	// merges; both settings elect the right leader.
	g := graph.IncreasingRing(40)
	for _, cap := range []int{0, 1, 3} {
		res, err := sim.Run(g, NewWreathFactoryOpts(WreathOptions{AdmitCap: cap}),
			sim.WithMaxRounds(WreathMaxRounds(40, 2)))
		if err != nil {
			t.Fatalf("cap=%d: %v", cap, err)
		}
		if leader, ok := res.Leader(); !ok || leader != 39 {
			t.Errorf("cap=%d: leader %v %v", cap, leader, ok)
		}
	}
}

func TestWreathAblationBranching(t *testing.T) {
	t.Parallel()
	// Wider gadgets yield shallower final trees on the same workload.
	g := graph.Line(120)
	var depths []int
	for _, b := range []int{2, 8} {
		res, err := sim.Run(g, NewWreathFactoryOpts(WreathOptions{Branching: b, AdmitCap: 0}),
			sim.WithMaxRounds(WreathMaxRounds(120, b)))
		if err != nil {
			t.Fatalf("b=%d: %v", b, err)
		}
		leader, ok := res.Leader()
		if !ok {
			t.Fatalf("b=%d: no leader", b)
		}
		depths = append(depths, res.History.CurrentClone().Eccentricity(leader))
	}
	if depths[1] >= depths[0] {
		t.Errorf("branching 8 depth %d should beat binary depth %d", depths[1], depths[0])
	}
}
