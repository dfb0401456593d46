package service

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"adnet/internal/temporal"
)

// streamObs carries the hub instruments one stream folds into on the
// producer side (encode count/latency, retained bytes are read via
// FrameBytes at scrape time). nil disables instrumentation — tests
// and library callers construct bare streams.
type streamObs struct {
	encoded    func(d time.Duration, frameBytes int)
	reencoded  func(frames int)
	frameEvict func(frames int, bytes int)
}

// stream is the shared broadcast hub behind RoundStream, CellStream
// and the topology streams: a producer publishes items in order, any
// number of subscribers read with a cursor, so late subscribers replay
// the full history before tailing live items. close marks the end of
// the stream; replay of a closed stream still works.
//
// Every published item is encoded exactly once, at publish time, into
// an immutable NDJSON byte frame appended to the frame log; the HTTP
// fan-out writes those raw frames, so N subscribers cost N writes but
// one marshal per item regardless of N. The frame log is bounded by
// maxFrameBytes: when the retained encoded bytes exceed it, the oldest
// frames are evicted (the typed items stay — they bound memory by the
// round/cell limits as before) and a subscriber replaying the evicted
// range gets per-subscriber re-encoded frames, preserving the wire
// format while keeping the shared log's memory capped.
type stream[T any] struct {
	mu    sync.Mutex
	cond  *sync.Cond
	items []T
	done  bool

	// Frame log: frames[i] is the encoded NDJSON line of
	// items[frameBase+i]. frameBytes accounts the retained encoded
	// bytes; encodes counts marshals performed (the O(1)-per-item
	// invariant BenchmarkFanout pins).
	frames        [][]byte
	frameBase     int
	frameBytes    int64
	maxFrameBytes int64
	encodes       int64

	// enc overrides the frame encoding (default jsonFrame): how the
	// packed topology format shares the hub machinery with a different
	// wire rendering of the same items.
	enc func(T) []byte

	obs *streamObs
}

func (s *stream[T]) init() { s.cond = sync.NewCond(&s.mu) }

func (s *stream[T]) encodeFrame(item T) []byte {
	if s.enc != nil {
		return s.enc(item)
	}
	return jsonFrame(item)
}

// jsonFrame is the frame encoder: exactly what json.Encoder.Encode
// writes per item (Marshal output plus a trailing newline), so the
// frame fan-out is byte-identical to the per-connection-encoder wire
// format it replaced.
func jsonFrame[T any](item T) []byte {
	b, err := json.Marshal(item)
	if err != nil {
		// The stream item types (RoundStats, SweepCell, TopologyFrame)
		// marshal unconditionally; surface the impossible case as a
		// well-formed NDJSON error line rather than corrupting framing.
		b, _ = json.Marshal(errorResponse{Error: ErrorBody{
			Code: codeInternal, Message: "encode: " + err.Error(),
		}})
	}
	return append(b, '\n')
}

func (s *stream[T]) publish(item T) {
	start := time.Now()
	frame := s.encodeFrame(item)
	s.mu.Lock()
	s.items = append(s.items, item)
	s.appendFrameLocked(frame)
	obs := s.obs
	s.mu.Unlock()
	s.cond.Broadcast()
	if obs != nil && obs.encoded != nil {
		obs.encoded(time.Since(start), len(frame))
	}
}

// appendFrameLocked appends one encoded frame and evicts the oldest
// frames beyond the byte bound. Callers hold s.mu.
func (s *stream[T]) appendFrameLocked(frame []byte) {
	s.frames = append(s.frames, frame)
	s.frameBytes += int64(len(frame))
	s.encodes++
	if s.maxFrameBytes <= 0 {
		return
	}
	evicted, evictedBytes := 0, 0
	for s.frameBytes > s.maxFrameBytes && len(s.frames) > 1 {
		evictedBytes += len(s.frames[0])
		s.frameBytes -= int64(len(s.frames[0]))
		s.frames = s.frames[1:]
		s.frameBase++
		evicted++
	}
	if evicted > 0 && s.obs != nil && s.obs.frameEvict != nil {
		s.obs.frameEvict(evicted, evictedBytes)
	}
}

func (s *stream[T]) close() {
	s.mu.Lock()
	s.done = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Len returns the number of items published so far.
func (s *stream[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

// FrameBytes returns the encoded bytes currently retained in the
// frame log — the stream's share of the server's streaming memory,
// surfaced through sweep status and /healthz.
func (s *stream[T]) FrameBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frameBytes
}

// Encodes returns the number of marshals performed over the stream's
// lifetime (the per-item encode-once invariant: Encodes == items
// published, + re-encodes after eviction).
func (s *stream[T]) Encodes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.encodes
}

// snapshot returns the items published so far as a capped three-index
// subslice — items are append-only and never mutated in place, so
// sharing the backing array is safe and needs no O(n) copy under the
// lock.
func (s *stream[T]) snapshot() []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.items)
	return s.items[0:n:n]
}

// Wait blocks until items beyond cursor are available and returns
// them (as a capped slice the caller may range over but not append
// to). It returns ok=false when the stream is finished and fully
// consumed, or when ctx is canceled.
func (s *stream[T]) Wait(ctx context.Context, cursor int) ([]T, bool) {
	stop := context.AfterFunc(ctx, func() {
		// Broadcast under the lock: otherwise the wakeup could slip
		// between a waiter's ctx check and its cond.Wait and be lost.
		s.mu.Lock()
		defer s.mu.Unlock()
		s.cond.Broadcast()
	})
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if cursor < len(s.items) {
			n := len(s.items)
			return s.items[cursor:n:n], true
		}
		if s.done || ctx.Err() != nil {
			return nil, false
		}
		s.cond.Wait()
	}
}

// reencodeBatch caps how many evicted frames one WaitFrames call
// rebuilds, bounding the per-call allocation burst of a cold replay.
const reencodeBatch = 256

// WaitFrames blocks until frames beyond cursor are available and
// returns a batch of encoded NDJSON frames (and ok=false exactly when
// Wait would: stream finished and consumed, or ctx canceled). The hot
// tail — every subscriber at or near the head — is served as a capped
// subslice of the shared frame log: zero copies, zero encodes. Only a
// subscriber replaying a range the byte bound already evicted gets
// frames re-encoded for it (counted via the reencoded hook), outside
// the lock, from the append-only items.
func (s *stream[T]) WaitFrames(ctx context.Context, cursor int) ([][]byte, bool) {
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.cond.Broadcast()
	})
	defer stop()
	s.mu.Lock()
	for {
		if cursor < len(s.items) {
			if cursor >= s.frameBase {
				n := len(s.frames)
				out := s.frames[cursor-s.frameBase : n : n]
				s.mu.Unlock()
				return out, true
			}
			// Cold replay below the eviction horizon: re-encode from
			// the retained items, per subscriber, outside the lock.
			end := min(s.frameBase, cursor+reencodeBatch)
			items := s.items[cursor:end:end]
			obs := s.obs
			s.mu.Unlock()
			out := make([][]byte, len(items))
			for i, item := range items {
				out[i] = s.encodeFrame(item)
			}
			if obs != nil && obs.reencoded != nil {
				obs.reencoded(len(out))
			}
			return out, true
		}
		if s.done || ctx.Err() != nil {
			s.mu.Unlock()
			return nil, false
		}
		s.cond.Wait()
	}
}

// RoundStream is the per-job publication channel for round statistics.
// The worker publishes one temporal.RoundStats per completed round.
// Memory is bounded by the job's round limit — RoundStats is five ints.
type RoundStream struct {
	stream[temporal.RoundStats]
}

func newRoundStream(maxFrameBytes int64, obs *streamObs) *RoundStream {
	s := &RoundStream{}
	s.init()
	s.maxFrameBytes = maxFrameBytes
	s.obs = obs
	return s
}

// CellStream is the per-sweep-job publication channel for finished
// grid cells, in canonical cell order. Subscribers replay completed
// cells and tail live ones exactly like RoundStream subscribers;
// memory is bounded by the sweep-cell limit.
type CellStream struct {
	stream[SweepCell]
}

func newCellStream(maxFrameBytes int64, obs *streamObs) *CellStream {
	s := &CellStream{}
	s.init()
	s.maxFrameBytes = maxFrameBytes
	s.obs = obs
	return s
}
