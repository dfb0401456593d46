package service

import (
	"context"
	"encoding/json"
	"sync"
)

// frameLog is the broadcast hub behind every NDJSON stream: an
// append-only log of immutable records. A producer appends in order,
// any number of subscribers read with a cursor, so late subscribers
// replay the full history before tailing live records. close marks the
// end of the log; replay of a closed log still works.
//
// A log holds packed records, never the lines its endpoints serve: a
// run's round records (topology.go), the one store behind /rounds and
// both /topology formats, and a sweep's cell records (cells.go) behind
// /cells. Each subscriber renders what it reads on its own goroutine
// (streamNDJSON). Nothing is evicted: a log is bounded by what bounds
// its producer — the round caps and MaxN for a run's, MaxSweepCells for
// a sweep's — and lives as long as its job is retained.
type frameLog struct {
	mu     sync.Mutex
	cond   *sync.Cond
	frames [][]byte
	served int64 // the bytes the log's endpoints serve for its records
	done   bool
}

// newFrameLog returns an empty log with room for capacity records: a
// sweep's grid volume, or 0 when the producer cannot know (a run's
// round count).
func newFrameLog(capacity int) *frameLog {
	l := &frameLog{frames: make([][]byte, 0, capacity)}
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

// add appends one record the caller no longer writes to; served is the
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

// Len returns the number of records appended so far.
func (l *frameLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.frames)
}

// FrameBytes returns the bytes the log's endpoints serve for what it
// holds, surfaced through sweep status and /healthz: a sweep's /cells
// drain, a run's /rounds and /topology?format=packed drains, each from
// cursor 0 — more than its records take to hold.
func (l *frameLog) FrameBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.served
}

// WaitFrames blocks until records beyond cursor are available and
// returns them as a capped subslice of the shared log — zero copies;
// the caller may range over it but not append to it. It
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
