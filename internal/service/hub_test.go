package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"adnet/internal/expt"
	"adnet/internal/obs"
	"adnet/internal/temporal"
)

// collectFrames drains every frame of s from cursor 0 and returns the
// concatenated wire bytes. The stream must be closed (or get closed
// concurrently) or the call blocks.
func collectFrames[T any](t *testing.T, s *stream[T]) []byte {
	t.Helper()
	var buf bytes.Buffer
	cursor := 0
	for {
		batch, ok := s.WaitFrames(context.Background(), cursor)
		if !ok {
			return buf.Bytes()
		}
		for _, f := range batch {
			buf.Write(f)
		}
		cursor += len(batch)
	}
}

func sampleRounds(n int) []temporal.RoundStats {
	out := make([]temporal.RoundStats, n)
	for i := range out {
		out[i] = temporal.RoundStats{
			Round: i + 1, Activated: 3 * i, Deactivated: i % 5,
			ActiveEdges: 100 + i, ActivatedAlive: 2 * i,
		}
	}
	return out
}

// TestFrameLogByteIdentity pins the wire format: the encode-once frame
// log must produce exactly the bytes the old per-connection
// json.Encoder loop wrote — including HTML escaping and the trailing
// newline — for both round stats and sweep cells.
func TestFrameLogByteIdentity(t *testing.T) {
	t.Parallel()

	rs := newRoundStream(0, nil)
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, st := range sampleRounds(50) {
		rs.publish(st)
		if err := enc.Encode(st); err != nil {
			t.Fatal(err)
		}
	}
	rs.close()
	if got := collectFrames(t, &rs.stream); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("rounds frame bytes differ from json.Encoder output:\ngot  %q\nwant %q", got, want.Bytes())
	}

	cs := newCellStream(0, nil)
	want.Reset()
	out := expt.Outcome{N: 64, Rounds: 12, LeaderOK: true, FinalDiameter: 2}
	cells := []SweepCell{
		{Index: 0, Algorithm: "graph-to-star", Workload: "line", N: 64, Seed: 1, Outcome: &out},
		{Index: 1, Algorithm: "flood", Workload: "ring", N: 64, Seed: 2, FromCache: true, Outcome: &out},
		// HTML-escaping characters must keep escaping the way
		// json.Encoder did (<, >, & become \u escapes).
		{Index: 2, Algorithm: "clique", Workload: "star", N: 8, Seed: 3, Error: `limit <exceeded> & "quoted"`},
	}
	for _, c := range cells {
		cs.publish(c)
		if err := enc.Encode(c); err != nil {
			t.Fatal(err)
		}
	}
	cs.close()
	if got := collectFrames(t, &cs.stream); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("cells frame bytes differ from json.Encoder output:\ngot  %q\nwant %q", got, want.Bytes())
	}
}

// TestEndpointByteIdentity runs a real job through the HTTP surface
// and checks the rounds endpoint's NDJSON body is byte-for-byte what a
// per-item json.Encoder would write for the same history — the
// regression gate for swapping the encoder loop out for frame fan-out.
func TestEndpointByteIdentity(t *testing.T) {
	t.Parallel()
	m := NewManager(Config{Workers: 2})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	job, _, err := m.Submit(fastSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateDone)

	resp, err := http.Get(srv.URL + "/v1/runs/" + job.ID + "/rounds")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("rounds endpoint: status=%d err=%v", resp.StatusCode, err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, st := range job.Stream().snapshot() {
		if err := enc.Encode(st); err != nil {
			t.Fatal(err)
		}
	}
	if want.Len() == 0 {
		t.Fatal("job streamed no rounds")
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("rounds endpoint body differs from per-item encoder output:\ngot  %q\nwant %q", body, want.Bytes())
	}
}

// TestEncodeOncePerItem pins the hub invariant: marshals per item stay
// at one no matter how many subscribers drain the stream — a live
// stream's own subscribers and those of a cache-hit job alike, since
// the hit serves the stream of the job that executed.
func TestEncodeOncePerItem(t *testing.T) {
	t.Parallel()
	const items, subs = 100, 32

	live := newRoundStream(0, nil)
	for _, st := range sampleRounds(items) {
		live.publish(st)
	}
	live.close()

	m := NewManager(Config{Workers: 1})
	defer m.Close()
	job, _, err := m.Submit(fastSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateDone)
	hit, cached, err := m.Submit(fastSpec(5))
	if err != nil || !cached {
		t.Fatalf("resubmit = (cached=%v, err=%v), want cache hit", cached, err)
	}
	if hit.Stream() != job.Stream() || hit.Topology() != job.Topology() {
		t.Fatal("cache-hit job does not share the executing job's streams")
	}

	for name, s := range map[string]*RoundStream{"live": live, "replay": hit.Stream()} {
		var wg sync.WaitGroup
		for i := 0; i < subs; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				collectFrames(t, &s.stream)
			}()
		}
		wg.Wait()
		if got, want := s.Encodes(), int64(s.Len()); got != want || want == 0 {
			t.Errorf("%s stream: %d encodes for %d items across %d subscribers, want exactly %d",
				name, got, want, subs, want)
		}
	}
}

// TestFrameLogEvictionAndReencode bounds the shared log and checks a
// late subscriber still replays the full, byte-identical history via
// per-subscriber re-encoding of the evicted prefix.
func TestFrameLogEvictionAndReencode(t *testing.T) {
	t.Parallel()
	var reencoded, evicted int
	hooks := &streamObs{
		reencoded:  func(frames int) { reencoded += frames },
		frameEvict: func(frames, bytes int) { evicted += frames },
	}
	s := newRoundStream(256, hooks) // a handful of ~70-byte frames
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, st := range sampleRounds(80) {
		s.publish(st)
		if err := enc.Encode(st); err != nil {
			t.Fatal(err)
		}
	}
	s.close()
	if evicted == 0 {
		t.Fatal("byte bound never evicted a frame")
	}
	if fb := s.FrameBytes(); fb > 256 {
		t.Errorf("retained frame bytes %d exceed the 256-byte bound", fb)
	}
	if got := collectFrames(t, &s.stream); !bytes.Equal(got, want.Bytes()) {
		t.Error("cold replay across the eviction horizon is not byte-identical")
	}
	if reencoded == 0 {
		t.Error("cold replay should have been counted as re-encodes")
	}
	// The hot tail is still served from the shared log: a subscriber
	// starting past the eviction horizon triggers no re-encode.
	before := reencoded
	if _, ok := s.WaitFrames(context.Background(), 79); !ok {
		t.Fatal("tail read failed")
	}
	if reencoded != before {
		t.Error("hot-tail read re-encoded frames")
	}
}

// TestStalledSubscriberDropped starts a real TCP server, attaches one
// subscriber that never reads and one that drains, and checks the
// backpressure policy: the stalled connection is dropped by the write
// deadline while the producer and the healthy subscriber proceed
// unimpeded. Both the rounds-shaped and topology-shaped streams go
// through the same streamNDJSON path the endpoints use.
func TestStalledSubscriberDropped(t *testing.T) {
	t.Parallel()
	// Big frames fill the socket buffers fast; 4096 slot pairs is
	// ~50KB of JSON per frame.
	bigDelta := make([]int32, 8192)
	for i := range bigDelta {
		bigDelta[i] = int32(i)
	}
	for _, tc := range []struct {
		name  string
		kind  string
		serve func(mt *metrics, timeout time.Duration) (http.HandlerFunc, func(i int), func(), *int64)
	}{
		{
			name: "topology",
			kind: streamTopo,
			serve: func(mt *metrics, timeout time.Duration) (http.HandlerFunc, func(i int), func(), *int64) {
				ts := newTopologyStream(0, nil, nil)
				var total int64
				handler := func(w http.ResponseWriter, r *http.Request) {
					streamNDJSON(w, r, &ts.json, 0, timeout, mt.topoSub)
				}
				publish := func(i int) {
					f := TopologyFrame{Round: i + 1, Activate: bigDelta}
					total += int64(len(jsonFrame(f)))
					ts.publish(f)
				}
				return handler, publish, ts.close, &total
			},
		},
		{
			name: "rounds",
			kind: streamRounds,
			serve: func(mt *metrics, timeout time.Duration) (http.HandlerFunc, func(i int), func(), *int64) {
				rs := newRoundStream(0, nil)
				var total int64
				handler := func(w http.ResponseWriter, r *http.Request) {
					streamNDJSON(w, r, &rs.stream, 0, timeout, mt.roundsSub)
				}
				publish := func(i int) {
					st := temporal.RoundStats{Round: i + 1, Activated: i, ActiveEdges: 1 << 20}
					total += int64(len(jsonFrame(st)))
					rs.publish(st)
				}
				return handler, publish, rs.close, &total
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			mt := newMetrics(obs.NewRegistry(), nil)
			handler, publish, closeStream, total := tc.serve(mt, 150*time.Millisecond)
			srv := httptest.NewServer(http.HandlerFunc(handler))
			defer srv.Close()

			// Stalled subscriber: a raw connection that sends the request
			// and then never reads a byte.
			stalled, err := net.Dial("tcp", srv.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer stalled.Close()
			fmt.Fprintf(stalled, "GET /stream HTTP/1.1\r\nHost: test\r\n\r\n")

			// Healthy subscriber: drains the stream to the end.
			healthy := make(chan int64, 1)
			go func() {
				resp, err := http.Get(srv.URL + "/stream")
				if err != nil {
					healthy <- -1
					return
				}
				defer resp.Body.Close()
				n, _ := io.Copy(io.Discard, bufio.NewReader(resp.Body))
				healthy <- n
			}()
			// Give both subscribers time to attach so the stall overlaps
			// the publishing.
			waitFor(t, func() bool { return mt.streamSubscribers.With(tc.kind).Value() == 2 },
				"subscribers never attached")

			// Producer: publishing never blocks on the stalled reader.
			// Push enough bytes to overrun any socket buffering between
			// server and stalled client.
			start := time.Now()
			i := 0
			for *total < 32<<20 {
				publish(i)
				i++
			}
			producerElapsed := time.Since(start)

			// The stalled subscriber must get dropped by the write
			// deadline well before the healthy one finishes the stream.
			waitFor(t, func() bool { return mt.streamDropped.With(tc.kind).Value() >= 1 },
				"stalled subscriber was never dropped")
			closeStream()

			select {
			case n := <-healthy:
				if n != *total {
					t.Errorf("healthy subscriber read %d bytes, want %d", n, *total)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("healthy subscriber never finished")
			}
			// The producer is decoupled from subscribers by construction;
			// this catches regressions that reintroduce producer-side
			// blocking (e.g. bounded per-subscriber queues).
			if producerElapsed > 10*time.Second {
				t.Errorf("producer took %v with a stalled subscriber attached", producerElapsed)
			}
		})
	}
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestStreamFanoutRace exercises concurrent publish, subscribe, status
// reads and close under the race detector (the CI race job runs this
// package with -race).
func TestStreamFanoutRace(t *testing.T) {
	t.Parallel()
	s := newRoundStream(512, nil)
	const items, subs = 400, 8
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, st := range sampleRounds(items) {
			s.publish(st)
		}
		s.close()
	}()
	for i := 0; i < subs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cursor := 0
			for {
				batch, ok := s.WaitFrames(context.Background(), cursor)
				if !ok {
					return
				}
				for _, f := range batch {
					if len(f) == 0 || f[len(f)-1] != '\n' {
						t.Error("malformed frame")
						return
					}
				}
				cursor += len(batch)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 200; j++ {
			_ = s.Len()
			_ = s.FrameBytes()
			_ = s.snapshot()
		}
	}()
	wg.Wait()
	if got := s.Len(); got != items {
		t.Fatalf("published %d items, stream holds %d", items, got)
	}
}

// BenchmarkFanout contrasts the encode-once hub with the
// per-connection-encoder baseline it replaced. The hub's per-subscriber
// cost must be an order of magnitude below the baseline's at high
// fan-out: the baseline marshals every item once per subscriber, the
// hub once per stream.
func BenchmarkFanout(b *testing.B) {
	const items = 256
	rounds := sampleRounds(items)
	for _, subs := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("encoder/subs=%d", subs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for s := 0; s < subs; s++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						enc := json.NewEncoder(io.Discard)
						for j := range rounds {
							if err := enc.Encode(rounds[j]); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			}
		})
		b.Run(fmt.Sprintf("hub/subs=%d", subs), func(b *testing.B) {
			b.ReportAllocs()
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				s := newRoundStream(0, nil)
				for j := range rounds {
					s.publish(rounds[j])
				}
				s.close()
				var wg sync.WaitGroup
				for k := 0; k < subs; k++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						cursor := 0
						var sink int
						for {
							batch, ok := s.WaitFrames(ctx, cursor)
							if !ok {
								return
							}
							for _, f := range batch {
								sink += len(f)
							}
							cursor += len(batch)
						}
					}()
				}
				wg.Wait()
				if got := s.Encodes(); got != items {
					b.Fatalf("hub performed %d encodes, want %d", got, items)
				}
			}
		})
	}
}
