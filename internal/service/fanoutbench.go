package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"adnet/internal/temporal"
)

// FanoutBenchResult is one measured pass over the broadcast hub's
// fan-out path: how many records the hub packed (one per round
// regardless of subscriber count) and how many rendered bytes were
// delivered across all subscribers.
type FanoutBenchResult struct {
	Encodes     int64
	FannedBytes int64
}

// RunFanoutBench appends rounds round records to one hub while
// subscribers concurrent readers drain it to exhaustion via the same
// WaitFrames path the HTTP handlers use, each rendering every record
// as its /rounds line. It is the measured core of the benchmark's
// service.hub_* rows; the caller wraps it in wall-clock accounting.
func RunFanoutBench(rounds, subscribers int) FanoutBenchResult {
	var encodes int64 // written by the publishing goroutine only
	rp := &replay{log: newFrameLog(0), recordObs: func(time.Duration) { encodes++ }}
	ctx := context.Background()
	var fanned atomic.Int64
	var wg sync.WaitGroup
	wg.Add(subscribers)
	for range subscribers {
		go func() {
			defer wg.Done()
			var local int64
			var line []byte
			cursor := 1 // /rounds skips the header
			for {
				batch, ok := rp.log.WaitFrames(ctx, cursor)
				if !ok {
					break
				}
				for k, rec := range batch {
					line = renderRounds(line[:0], rec, cursor+k)
					local += int64(len(line))
				}
				cursor += len(batch)
			}
			fanned.Add(local)
		}()
	}
	rp.publishHeader(1024, nil)
	for i := range rounds {
		rp.publishDelta(temporal.RoundDelta{Round: i + 1, Stats: temporal.RoundStats{
			Round:          i + 1,
			Activated:      i % 7,
			Deactivated:    i % 3,
			ActiveEdges:    1024 + i,
			ActivatedAlive: i % 11,
		}})
	}
	rp.close()
	wg.Wait()
	return FanoutBenchResult{Encodes: encodes, FannedBytes: fanned.Load()}
}
