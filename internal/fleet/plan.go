package fleet

import "adnet/internal/expt"

// Shard is one dispatchable slice of a sweep grid: a whole
// (algorithm, workload, n) row with every seed, i.e. exactly one
// aggregation group. The coordinator's aggregate is the fold of the
// merged cell stream, so it would be exact under any contiguous
// partition; one shard per group is the unit of dispatch, re-dispatch
// and merge. Parallelism therefore comes from the grid's group
// dimensions — which the paper's tables make wide — not from splitting
// seed lists.
type Shard struct {
	// Index is the shard's position in canonical grid order.
	Index int
	// Offset is the global canonical index of the shard's first cell.
	Offset int
	// Spec is the shard's sub-grid. Its canonical cell order equals
	// the global order of the parent grid restricted to this shard, so
	// global index = Offset + local index.
	Spec expt.SweepSpec
}

// NumCells returns the shard's cell count.
func (s Shard) NumCells() int { return s.Spec.NumCells() }

// PlanShards partitions the grid's canonical cell sequence into
// contiguous, group-aligned shards: one per (algorithm, workload, n)
// row, in canonical order. The plan is a pure function of the spec —
// every coordinator (and every retry) produces the same shards, so a
// shard names the same cells no matter which worker executes it or how
// often it is re-dispatched.
func PlanShards(spec expt.SweepSpec) []Shard {
	var shards []Shard
	for start, row := range expt.Groups(spec.Cells(), func(c expt.Cell) expt.Cell { return c }) {
		sub := row[0].Grid() // the row's first cell, widened to every seed
		sub.Seeds = make([]int64, len(row))
		for i, c := range row {
			sub.Seeds[i] = c.Seed
		}
		shards = append(shards, Shard{
			Index:  len(shards),
			Offset: start,
			Spec:   sub,
		})
	}
	return shards
}
