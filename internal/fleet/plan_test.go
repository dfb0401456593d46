package fleet

import (
	"reflect"
	"testing"

	"adnet/internal/expt"
)

// TestPlanShardsGroupAlignedDeterministic pins the planner's contract:
// shards are contiguous in canonical cell order, cover the grid
// exactly, align to (algorithm, workload, n) group boundaries, keep the
// grid's round limit, and are the same on every plan of the same spec.
func TestPlanShardsGroupAlignedDeterministic(t *testing.T) {
	t.Parallel()
	spec := expt.SweepSpec{
		Algorithms: []string{"graph-to-star", "flood"},
		Workloads:  []string{"line", "ring"},
		Sizes:      []int{16, 24},
		Seeds:      []int64{1, 2, 3},
		MaxRounds:  500,
	}
	shards := PlanShards(spec)
	if want := 2 * 2 * 2; len(shards) != want {
		t.Fatalf("shards = %d, want one per (algorithm, workload, n) row = %d", len(shards), want)
	}
	cells := spec.Cells()
	offset := 0
	for i, sh := range shards {
		if sh.Index != i || sh.Offset != offset {
			t.Fatalf("shard %d: index/offset = %d/%d, want %d/%d", i, sh.Index, sh.Offset, i, offset)
		}
		sub := sh.Spec.Cells()
		if len(sub) != 3 {
			t.Fatalf("shard %d: %d cells, want 3 seeds", i, len(sub))
		}
		for j, c := range sub {
			if c != cells[offset+j] {
				t.Fatalf("shard %d cell %d = %+v, want global cell %d = %+v", i, j, c, offset+j, cells[offset+j])
			}
		}
		// One aggregation group per shard.
		first := sub[0]
		for _, c := range sub {
			if c.Algorithm != first.Algorithm || c.Workload != first.Workload || c.N != first.N {
				t.Fatalf("shard %d spans groups: %+v vs %+v", i, first, c)
			}
		}
		if sh.Spec.MaxRounds != 500 {
			t.Fatalf("shard %d: max rounds %d, want the grid's 500", i, sh.Spec.MaxRounds)
		}
		offset += len(sub)
	}
	if offset != len(cells) {
		t.Fatalf("shards cover %d cells, grid has %d", offset, len(cells))
	}
	// Pure function of the spec: the same plan every time.
	if again := PlanShards(spec); !reflect.DeepEqual(again, shards) {
		t.Fatalf("plan not deterministic: %+v vs %+v", again, shards)
	}
}
