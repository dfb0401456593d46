package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"adnet/internal/temporal"
)

// FanoutBenchResult is one measured pass over the broadcast hub's
// fan-out path: how many marshals the hub performed (the encode-once
// invariant makes this equal the round count regardless of subscriber
// count) and how many encoded bytes were delivered across all
// subscribers.
type FanoutBenchResult struct {
	Encodes     int64
	FannedBytes int64
}

// RunFanoutBench publishes rounds RoundStats frames through one hub
// while subscribers concurrent readers drain it to exhaustion via the
// same WaitFrames path the HTTP handlers use. It is the measured core
// of the benchmark's service.hub_* rows; the caller wraps it in
// wall-clock accounting.
func RunFanoutBench(rounds, subscribers int) FanoutBenchResult {
	var encodes int64 // written by the publishing goroutine only
	s := newFrameLog(func(time.Duration) { encodes++ })
	ctx := context.Background()
	var fanned atomic.Int64
	var wg sync.WaitGroup
	wg.Add(subscribers)
	for range subscribers {
		go func() {
			defer wg.Done()
			var local int64
			cursor := 0
			for {
				batch, ok := s.WaitFrames(ctx, cursor)
				if !ok {
					break
				}
				for _, f := range batch {
					local += int64(len(f))
				}
				cursor += len(batch)
			}
			fanned.Add(local)
		}()
	}
	for i := range rounds {
		s.publish(temporal.RoundStats{
			Round:          i + 1,
			Activated:      i % 7,
			Deactivated:    i % 3,
			ActiveEdges:    1024 + i,
			ActivatedAlive: i % 11,
		})
	}
	s.close()
	wg.Wait()
	return FanoutBenchResult{Encodes: encodes, FannedBytes: fanned.Load()}
}
