package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestNeighborsViewSharesStorage(t *testing.T) {
	t.Parallel()
	g := Line(4)
	v := g.NeighborsView(1)
	if !reflect.DeepEqual(v, []ID{0, 2}) {
		t.Fatalf("NeighborsView(1) = %v", v)
	}
	if g.NeighborsView(42) != nil {
		t.Fatal("NeighborsView of unknown node not nil")
	}
	// The view reflects later mutation (callers must not hold it across
	// mutations; this just pins down that it aliases, not copies).
	g.MustAddEdge(1, 3)
	if got := g.NeighborsView(1); !reflect.DeepEqual(got, []ID{0, 2, 3}) {
		t.Fatalf("view after mutation = %v", got)
	}
}

func TestCopyCanonicalFrom(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	src := PermuteIDs(RandomConnected(40, 60, rng), rng)
	src.minDeg = 3
	src.MustAddEdge(0, 1) // re-evaluates the threshold: some node promotes
	for v := ID(2); v < 12; v++ {
		src.MustAddEdge(0, v)
	}
	if !src.anyEngaged() {
		t.Fatal("source graph never engaged a bitset")
	}
	dst := New()
	dst.CopyCanonicalFrom(src)
	equalGraphs(t, src, dst, "copy")
	for _, u := range src.Nodes() {
		if !reflect.DeepEqual(dst.Neighbors(u), src.Neighbors(u)) {
			t.Fatalf("neighbors of %d differ", u)
		}
	}
	if !reflect.DeepEqual(dst.AppendNodes(nil), src.Nodes()) {
		t.Fatalf("AppendNodes = %v, want %v", dst.AppendNodes(nil), src.Nodes())
	}

	// Large to small, then to a different node set with gaps, all into
	// the same receiver: each copy must equal a fresh one — no node, no
	// neighbor and no representation left over from the one before.
	gappy := New()
	gappy.MustAddEdge(7, 9)
	gappy.MustAddEdge(9, 30)
	for _, next := range []*Graph{Line(5), gappy, src, gappy} {
		dst.CopyCanonicalFrom(next)
		equalGraphs(t, next, dst, "recopy")
		if dst.anyEngaged() {
			t.Fatal("recopy left a bitset-backed node")
		}
		for u := ID(-1); u <= src.MaxID()+1; u++ {
			if dst.HasNode(u) != next.HasNode(u) {
				t.Fatalf("recopy of %v: HasNode(%d) = %v", next, u, dst.HasNode(u))
			}
			if !reflect.DeepEqual(dst.Neighbors(u), next.Neighbors(u)) {
				t.Fatalf("recopy of %v: Neighbors(%d) = %v, want %v", next, u, dst.Neighbors(u), next.Neighbors(u))
			}
		}
	}
}
