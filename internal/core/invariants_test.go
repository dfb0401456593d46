package core

import (
	"fmt"
	"math/rand"
	"testing"

	"adnet/internal/graph"
	"adnet/internal/sim"
)

// TestWreathStructuralInvariants installs the white-box debug hook and
// asserts that no node ever carries a dangling ring/tree pointer at a
// phase boundary, across a mix of topologies and both gadget variants.
func TestWreathStructuralInvariants(t *testing.T) {
	var violations []string
	wreathDebugHook = func(round int, id graph.ID, desc string) {
		// The hook names the dangling pointer.
		switch desc {
		case "cw", "ccw", "parent", "child":
			violations = append(violations, fmt.Sprintf("round %d node %d: %s", round, id, desc))
		}
	}
	defer func() { wreathDebugHook = nil }()

	rng := rand.New(rand.NewSource(99))
	cases := []*graph.Graph{
		graph.Line(40),
		graph.Ring(33),
		graph.RandomTree(50, rng),
		graph.Grid(5, 7),
	}
	if g, err := graph.RandomBoundedDegree(64, 4, 30, rng); err == nil {
		cases = append(cases, g)
	}
	for _, thin := range []bool{false, true} {
		for _, g := range cases {
			violations = violations[:0]
			factory := NewGraphToWreathFactory()
			if thin {
				factory = NewGraphToThinWreathFactory()
			}
			n := g.NumNodes()
			b := WreathBranching(n, thin)
			if _, err := sim.Run(g, factory, sim.WithMaxRounds(WreathMaxRounds(n, b))); err != nil {
				t.Fatalf("thin=%v n=%d: %v", thin, n, err)
			}
			if len(violations) > 0 {
				t.Fatalf("thin=%v n=%d: %d dangling pointers, first: %s",
					thin, n, len(violations), violations[0])
			}
		}
	}
}
