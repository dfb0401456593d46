package service

import (
	"context"
	"encoding/json"
	"sync"
	"time"
)

// frameLog is the broadcast hub behind every NDJSON stream: an
// append-only log of immutable frames. A producer appends in order, any
// number of subscribers read with a cursor, so late subscribers replay
// the full history before tailing live frames. close marks the end of
// the log; replay of a closed log still works.
//
// A sweep's log holds its /cells lines: every published item is
// marshaled exactly once, synchronously inside publish, and every
// subscriber writes the same frames, so N subscribers cost N writes but
// one marshal per item. A run's log holds its packed round records
// (topology.go), the one store behind /rounds and both /topology
// formats, which each subscriber renders on its own goroutine. Nothing
// is evicted: a log is bounded by what bounds its producer — the round
// caps and MaxN for a run's, MaxSweepCells for a sweep's — and lives as
// long as its job is retained.
type frameLog struct {
	mu     sync.Mutex
	cond   *sync.Cond
	frames [][]byte
	served int64 // the bytes the log's endpoints serve for frames
	done   bool

	// encoded, when set, observes each marshal (the encode-once
	// instruments on /metrics); bare logs in tests leave it nil.
	encoded func(d time.Duration)
}

func newFrameLog(encoded func(d time.Duration)) *frameLog {
	l := &frameLog{encoded: encoded}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// jsonFrame is the frame encoder: exactly what json.Encoder.Encode
// writes per item (Marshal output plus a trailing newline), so the
// frame fan-out is byte-identical to the per-connection-encoder wire
// format it replaced.
func jsonFrame(item any) []byte {
	b, err := json.Marshal(item)
	if err != nil {
		// The stream item types (SweepCell, TopologyFrame and the error
		// envelope) marshal unconditionally; surface the impossible case
		// as a well-formed NDJSON error line, not corrupt framing.
		b, _ = json.Marshal(errorResponse{Error: ErrorBody{
			Code: codeInternal, Message: "encode: " + err.Error(),
		}})
	}
	return append(b, '\n')
}

// publish encodes item and appends its frame. The marshal completes
// before publish returns, so item may alias memory the caller reuses
// afterwards.
func (l *frameLog) publish(item any) {
	start := time.Now()
	frame := jsonFrame(item)
	l.add(frame, len(frame))
	if l.encoded != nil {
		l.encoded(time.Since(start))
	}
}

// add appends one frame the caller no longer writes to; served is the
// bytes the log's endpoints serve for it.
func (l *frameLog) add(frame []byte, served int) {
	l.mu.Lock()
	l.frames = append(l.frames, frame)
	l.served += int64(served)
	l.mu.Unlock()
	l.cond.Broadcast()
}

func (l *frameLog) close() {
	l.mu.Lock()
	l.done = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// Len returns the number of frames published so far.
func (l *frameLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.frames)
}

// FrameBytes returns the bytes the log's endpoints serve for what it
// holds, surfaced through sweep status and /healthz: a sweep's /cells
// frames as they are, a run's /rounds and /topology?format=packed
// drains from cursor 0 — more than its records take to hold.
func (l *frameLog) FrameBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.served
}

// WaitFrames blocks until frames beyond cursor are available and
// returns them as a capped subslice of the shared log — zero copies,
// zero encodes; the caller may range over it but not append to it. It
// returns ok=false when the log is closed and fully consumed, or when
// ctx is canceled.
func (l *frameLog) WaitFrames(ctx context.Context, cursor int) ([][]byte, bool) {
	stop := context.AfterFunc(ctx, func() {
		// Broadcast under the lock: otherwise the wakeup could slip
		// between a waiter's ctx check and its cond.Wait and be lost.
		l.mu.Lock()
		defer l.mu.Unlock()
		l.cond.Broadcast()
	})
	defer stop()
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if n := len(l.frames); cursor < n {
			return l.frames[cursor:n:n], true
		}
		if l.done || ctx.Err() != nil {
			return nil, false
		}
		l.cond.Wait()
	}
}
