package expt

import (
	"testing"

	"adnet/internal/dynamics"
)

func TestKeyCanonicalAndInjectiveOnFields(t *testing.T) {
	t.Parallel()
	cell := Cell{Algorithm: "graph-to-star", Workload: "line", N: 64, Seed: 7}
	base := cell.Key()
	if base != "graph-to-star|line|n=64|seed=7|maxr=0" {
		t.Fatalf("key format changed: %q", base)
	}
	variants := []Cell{
		{Algorithm: "graph-to-wreath", Workload: "line", N: 64, Seed: 7},
		{Algorithm: "graph-to-star", Workload: "ring", N: 64, Seed: 7},
		{Algorithm: "graph-to-star", Workload: "line", N: 65, Seed: 7},
		{Algorithm: "graph-to-star", Workload: "line", N: 64, Seed: 8},
		{Algorithm: "graph-to-star", Workload: "line", N: 64, Seed: 7, MaxRounds: 1},
	}
	for i, v := range variants {
		if v.Key() == base {
			t.Errorf("variant %d collides with base", i)
		}
	}
}

func TestWithDynamics(t *testing.T) {
	t.Parallel()
	base := Cell{Algorithm: "flood", Workload: "line", N: 16, Seed: 1}.Key()
	// No dynamics: the key is byte-identical to the pre-dynamics
	// format, so existing caches and journals stay valid.
	if got := withDynamics(base, nil); got != base {
		t.Fatalf("withDynamics(base, nil) = %q, want %q", got, base)
	}
	got := withDynamics(base, &dynamics.Spec{Class: dynamics.ClassEdgeChurn})
	want := base + "|dyn=edge-churn,k=1,preserve=false,seed=0"
	if got != want {
		t.Fatalf("withDynamics = %q, want %q", got, want)
	}
	if withDynamics(base, &dynamics.Spec{Class: dynamics.ClassCrash}) == got {
		t.Fatalf("different dynamics keys collide")
	}
}
