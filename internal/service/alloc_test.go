//go:build !race

package service

import (
	"testing"

	"adnet/internal/temporal"
)

// TestPublishDeltaAllocatesTheRecord pins the engine's delta hook at
// one allocation a round: the record itself, copied out of the
// producer's scratch at its exact size. Nothing is marshaled.
func TestPublishDeltaAllocatesTheRecord(t *testing.T) {
	rp := bareReplay()
	rp.publishHeader(512, []int32{0, 1, 1, 2, 2, 3})
	d := temporal.RoundDelta{
		Round:       7,
		Activate:    []int32{0, 2, 0, 3, 5, 300},
		Deactivate:  []int32{1, 2},
		EnvActivate: []int32{4, 5},
		Stats:       temporal.RoundStats{Round: 7, Activated: 3, Deactivated: 1, ActiveEdges: 600, ActivatedAlive: 40},
	}
	if allocs := testing.AllocsPerRun(1000, func() { rp.publishDelta(d) }); allocs != 1 {
		t.Fatalf("publishDelta = %v allocs/round, want 1 (the record)", allocs)
	}
}
