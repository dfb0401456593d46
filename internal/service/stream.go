package service

import (
	"context"
	"encoding/json"
	"sync"
	"time"
)

// frameLog is the broadcast hub behind every NDJSON stream (/rounds,
// /topology, /cells — one log each): an append-only log of encoded
// frames. A producer publishes items in order, any number of
// subscribers read with a cursor, so late subscribers replay the full
// history before tailing live frames. close marks the end of the log;
// replay of a closed log still works.
//
// Every published item is marshaled exactly once, synchronously inside
// publish, into an immutable NDJSON line; that line is the only form
// the log keeps of the item and what every subscriber writes (or, for
// /topology's json format, renders from), so N subscribers cost N writes
// but one marshal per item. Nothing is evicted: a log is bounded by what
// bounds its producer — the round caps and MaxN for a run's logs,
// MaxSweepCells for a sweep's — and lives as long as its job is retained.
type frameLog struct {
	mu     sync.Mutex
	cond   *sync.Cond
	frames [][]byte
	bytes  int64
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
		// The stream item types (RoundStats, SweepCell, TopologyFrame and
		// its packed form) marshal unconditionally; surface the impossible
		// case as a well-formed NDJSON error line, not corrupt framing.
		b, _ = json.Marshal(errorResponse{Error: ErrorBody{
			Code: codeInternal, Message: "encode: " + err.Error(),
		}})
	}
	return append(b, '\n')
}

// publish encodes item and appends its frame. The marshal completes
// before publish returns, so item may alias memory the caller reuses
// afterwards (the topology hooks pass the engine's scratch slices).
func (l *frameLog) publish(item any) {
	start := time.Now()
	frame := jsonFrame(item)
	l.mu.Lock()
	l.frames = append(l.frames, frame)
	l.bytes += int64(len(frame))
	l.mu.Unlock()
	l.cond.Broadcast()
	if l.encoded != nil {
		l.encoded(time.Since(start))
	}
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

// FrameBytes returns the encoded bytes the log holds — exactly the
// bytes a subscriber draining it from cursor 0 reads — surfaced
// through sweep status and /healthz.
func (l *frameLog) FrameBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
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
