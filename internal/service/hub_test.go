package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
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
	"adnet/internal/sim"
	"adnet/internal/temporal"
)

// bareReplay is a run's frame log without instruments, for tests that
// drive the publish hooks outside a Manager.
func bareReplay() *replay {
	return &replay{log: newFrameLog(0)}
}

// bareSweep is a sweep job over spec with its cell log and nothing
// else — no journal, no instruments — for tests that record cells
// outside a running Manager (record).
func bareSweep(spec SweepSpec) *SweepJob {
	return &SweepJob{Spec: spec, grid: spec.Normalized(), cells: newFrameLog(0), packed: func(time.Duration) {}}
}

// bareManager is a Manager with its instruments and an empty outcome
// index and nothing else: what emitCell reads of it.
var bareManager = &Manager{metrics: newMetrics(obs.NewRegistry(), nil), outcomes: newLRU[[]byte](0)}

// record hands c, converted as the fleet converts a worker's line, to
// the executors' shared emit (emitCell) on bareManager.
func record(j *SweepJob, c SweepCell) error {
	cell := expt.Cell{Algorithm: c.Algorithm, Workload: c.Workload, N: c.N, Seed: c.Seed, MaxRounds: c.MaxRounds}
	return bareManager.emitCell(j, &SweepSummary{}, expt.WireCellResult(c.Index, cell, c.FromCache, c.Outcome, c.Error))
}

// gridCells is one outcome cell for every cell of spec, in canonical
// order, as a worker streams them.
func gridCells(spec SweepSpec) []SweepCell {
	var cells []SweepCell
	for i, c := range spec.Cells() {
		out := expt.Outcome{N: c.N, Rounds: i + 1, TotalMessages: 3 * i, LeaderOK: i%2 == 0}
		cells = append(cells, SweepCell{Index: i, Algorithm: c.Algorithm, Workload: c.Workload, N: c.N, Seed: c.Seed,
			MaxRounds: c.MaxRounds, FromCache: i%3 == 0, Outcome: &out})
	}
	return cells
}

// logLines drains every frame of s from cursor 0. The stream must be
// closed (or get closed concurrently) or the call blocks.
func logLines(s *frameLog) (lines [][]byte) {
	for {
		batch, ok := s.WaitFrames(context.Background(), len(lines))
		if !ok {
			return lines
		}
		lines = append(lines, batch...)
	}
}

// collectFrames is the concatenated wire bytes of logLines.
func collectFrames(t *testing.T, s *frameLog) []byte {
	t.Helper()
	return bytes.Join(logLines(s), nil)
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

// TestFrameLogByteIdentity pins the wire format: what subscribers
// render from the hub's records must be exactly the bytes the old
// per-connection json.Encoder loop wrote — including HTML escaping and
// the trailing newline — for both round stats and sweep cells.
func TestFrameLogByteIdentity(t *testing.T) {
	t.Parallel()

	rs := bareReplay()
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	rs.publishHeader(2, nil)
	for _, st := range sampleRounds(50) {
		rs.publishDelta(temporal.RoundDelta{Round: st.Round, Stats: st})
		if err := enc.Encode(st); err != nil {
			t.Fatal(err)
		}
	}
	rs.close()
	if got := renderLog(rs.log, renderRounds, 1); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("rounds frame bytes differ from json.Encoder output:\ngot  %q\nwant %q", got, want.Bytes())
	}

	cs := bareSweep(SweepSpec{Algorithms: []string{"graph-to-star", "flood", "clique"}, Workloads: []string{"line"}, Sizes: []int{64}, Seeds: []int64{1}})
	want.Reset()
	out := expt.Outcome{N: 64, Rounds: 12, LeaderOK: true, FinalDiameter: 2}
	cells := []SweepCell{
		{Index: 0, Algorithm: "graph-to-star", Workload: "line", N: 64, Seed: 1, Outcome: &out},
		{Index: 1, Algorithm: "flood", Workload: "line", N: 64, Seed: 1, FromCache: true, Outcome: &out},
		// HTML-escaping characters must keep escaping the way
		// json.Encoder did (<, >, & become \u escapes).
		{Index: 2, Algorithm: "clique", Workload: "line", N: 64, Seed: 1, Error: `limit <exceeded> & "quoted"`},
	}
	for _, c := range cells {
		if err := record(cs, c); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(c); err != nil {
			t.Fatal(err)
		}
	}
	cs.cells.close()
	if got := renderLog(cs.cells, cs.renderCell, 0); !bytes.Equal(got, want.Bytes()) {
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
	// The reference history comes from running the same spec in
	// process: runs are deterministic, and the server keeps no typed
	// rounds to compare against.
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	req := fastSpec(3).Request()
	req.SimOpts = append(req.SimOpts, sim.WithDeltaHook(func(d temporal.RoundDelta) {
		if err := enc.Encode(d.Stats); err != nil {
			t.Error(err)
		}
	}))
	if _, err := expt.Execute(req); err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("job streamed no rounds")
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("rounds endpoint body differs from per-item encoder output:\ngot  %q\nwant %q", body, want.Bytes())
	}
}

// TestEncodeOncePerItem pins the hub invariant: encodes per item stay
// at one no matter how many subscribers drain the stream — a pack per
// sweep cell, and a pack per run record for a live job's own
// subscribers and those of a cache-hit job alike, since the hit serves
// the log of the job that executed, rendered in every format.
func TestEncodeOncePerItem(t *testing.T) {
	t.Parallel()
	const items, subs = 100, 32

	seeds := make([]int64, items)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	live := bareSweep(SweepSpec{Algorithms: []string{"flood"}, Workloads: []string{"line"}, Sizes: []int{8}, Seeds: seeds})
	var liveEncodes int64
	live.packed = func(time.Duration) { liveEncodes++ }
	for _, c := range gridCells(live.Spec) {
		if err := record(live, c); err != nil {
			t.Fatal(err)
		}
	}
	live.cells.close()
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			renderLog(live.cells, live.renderCell, 0)
		}()
	}
	wg.Wait()
	if liveEncodes != items {
		t.Errorf("live stream: %d encodes for %d items across %d subscribers, want exactly %d",
			liveEncodes, items, subs, items)
	}

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
	if hit.replay != job.replay {
		t.Fatal("cache-hit job does not share the executing job's log")
	}

	// Packs are counted on /metrics: one job ran, so the series are its
	// log's — every round record under rounds and topology_packed, the
	// header under topology_packed alone.
	renders := []struct {
		render renderFunc
		first  int
	}{{renderRounds, 1}, {renderPacked, 0}, {renderJSON, 0}}
	for i := 0; i < subs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := renders[i%len(renders)]
			if len(renderLog(hit.log, r.render, r.first)) == 0 {
				t.Error("a subscriber rendered nothing")
			}
		}()
	}
	wg.Wait()
	records := int64(hit.log.Len())
	for kind, want := range map[string]int64{streamRounds: records - 1, streamTopoPacked: records} {
		if got := m.metrics.streamEncoded.With(kind).Value(); got != want || records < 2 {
			t.Errorf("replay: %d %s encodes for %d records across %d subscribers, want exactly %d",
				got, kind, records, subs, want)
		}
	}
}

// drainBody GETs one streaming endpoint to EOF.
func drainBody(t *testing.T, srv *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d, %v", path, resp.StatusCode, err)
	}
	return body
}

// TestStreamBytesIsWhatIsServed pins what /healthz stream_bytes
// counts: the frame logs are the only store of what was published, so
// for one finished run and one finished sweep it equals the bytes a
// client drains from /rounds, /topology?format=packed and /cells (the
// cells summary line is not a frame). The json topology format is
// rendered from the packed log per subscriber: its drain is held
// nowhere and counted nowhere. A cache-hit resubmission — which serves
// the same logs — adds nothing.
func TestStreamBytesIsWhatIsServed(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 1})

	sub, _ := postRun(t, srv, fastSpec(91))
	awaitDone(t, srv, sub.Job.ID)
	sweep, _ := postSweepJob(t, srv, sweepSpec())
	awaitSweepState(t, srv, sweep.ID, StateDone)

	var served int64
	for _, path := range []string{"/rounds", "/topology?format=packed"} {
		served += int64(len(drainBody(t, srv, "/v1/runs/"+sub.Job.ID+path)))
	}
	cells := drainBody(t, srv, "/v1/sweeps/"+sweep.ID+"/cells")
	summaryAt := bytes.LastIndexByte(cells[:len(cells)-1], '\n') + 1
	if !bytes.Contains(cells[summaryAt:], []byte(`"done"`)) {
		t.Fatalf("cells stream does not end in a summary line: %q", cells[summaryAt:])
	}
	served += int64(summaryAt)
	if len(drainBody(t, srv, "/v1/runs/"+sub.Job.ID+"/topology")) == 0 {
		t.Error("json topology drain is empty")
	}

	var health healthResponse
	mustGetJSON(t, srv, "/healthz", &health)
	if health.Stats.StreamBytes != served || served == 0 {
		t.Errorf("stream_bytes = %d, clients drained %d from /rounds + /topology?format=packed + /cells", health.Stats.StreamBytes, served)
	}
	if st := getSweepStatus(t, srv, sweep.ID); st.StreamBytes != int64(summaryAt) {
		t.Errorf("sweep stream_bytes = %d, /cells served %d", st.StreamBytes, summaryAt)
	}

	if hit, code := postRun(t, srv, fastSpec(91)); code != http.StatusOK || !hit.Cached {
		t.Fatalf("resubmit = (%d, cached=%v), want cache hit", code, hit.Cached)
	}
	mustGetJSON(t, srv, "/healthz", &health)
	if health.Stats.StreamBytes != served {
		t.Errorf("stream_bytes after a cache hit = %d, want %d unchanged", health.Stats.StreamBytes, served)
	}
}

// TestStreamBytesCountsCacheHeldReplays: a finished job leaves the job
// table after RetainJobs, but its replay lives on in the result cache —
// a resubmission serves it — so stream_bytes must count it. With one
// retained job and three cached runs the footprint is the three
// replays, not the last job's alone.
func TestStreamBytesCountsCacheHeldReplays(t *testing.T) {
	t.Parallel()
	m := NewManager(Config{Workers: 1, RetainJobs: 1, CacheSize: 8})
	defer m.Close()

	var held int64
	for seed := int64(1); seed <= 3; seed++ {
		job, _, err := m.Submit(fastSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, job, StateDone)
		held += job.FrameBytes()
	}
	// The third job retires, evicting the second, just after it is done.
	waitFor(t, func() bool { return m.Stats().Jobs == 1 }, "finished jobs were never evicted")
	if st := m.Stats(); st.CacheSize != 3 || st.StreamBytes != held || held == 0 {
		t.Errorf("jobs=%d cache=%d stream_bytes=%d, want 3 cached runs and the %d bytes their replays hold",
			st.Jobs, st.CacheSize, st.StreamBytes, held)
	}
}

// TestStalledSubscriberDropped starts a real TCP server, attaches one
// subscriber that never reads and one that drains, and checks the
// backpressure policy: the stalled connection is dropped by the write
// deadline while the producer and the healthy subscriber proceed
// unimpeded. Both the rounds-shaped stream (the log's own frames) and
// the topology-shaped one (json rendered from packed lines on the
// subscriber's goroutine) go through the same streamNDJSON path the
// endpoints use. It and its subtests run outside the parallel pool, so
// no other test competes for the cores while a 150 ms write deadline
// is armed.
//
// The healthy subscriber's socket gets a fixed receive buffer (4 MiB,
// or the host's net.core.rmem_max if smaller) when it connects. With
// the kernel's autotuned one, which starts small, a loopback writer
// pushing tens of MB/s can outrun the buffer's growth; the lost
// segments wait out a TCP retransmission timeout (at least 200 ms on
// Linux), longer than the deadline, and the server drops a reader that
// was keeping up.
func TestStalledSubscriberDropped(t *testing.T) {
	drainer := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		if err := c.(*net.TCPConn).SetReadBuffer(4 << 20); err != nil {
			c.Close()
			return nil, err
		}
		return c, nil
	}}
	defer drainer.CloseIdleConnections()
	client := &http.Client{Transport: drainer}
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
				ts := bareReplay()
				var total int64
				handler := func(w http.ResponseWriter, r *http.Request) {
					streamNDJSON(w, r, ts.log, renderJSON, 0, 0, timeout, mt.topoSub)
				}
				publish := func(i int) {
					d := temporal.RoundDelta{Round: i + 1, Activate: bigDelta}
					if i == 0 {
						ts.publishHeader(2, nil)
						total += int64(len(jsonFrame(TopologyFrame{N: 2})))
					}
					total += int64(len(jsonFrame(TopologyFrame{Round: d.Round, Activate: d.Activate})))
					ts.publishDelta(d)
				}
				return handler, publish, ts.close, &total
			},
		},
		{
			name: "rounds",
			kind: streamRounds,
			serve: func(mt *metrics, timeout time.Duration) (http.HandlerFunc, func(i int), func(), *int64) {
				ts := bareReplay()
				var total int64
				handler := func(w http.ResponseWriter, r *http.Request) {
					streamNDJSON(w, r, ts.log, renderRounds, 1, 0, timeout, mt.roundsSub)
				}
				publish := func(i int) {
					if i == 0 {
						ts.publishHeader(2, nil)
					}
					st := temporal.RoundStats{Round: i + 1, Activated: i, ActiveEdges: 1 << 20}
					total += int64(len(jsonFrame(st)))
					ts.publishDelta(temporal.RoundDelta{Round: i + 1, Stats: st})
				}
				return handler, publish, ts.close, &total
			},
		},
		{
			name: "cells",
			kind: streamCells,
			serve: func(mt *metrics, timeout time.Duration) (http.HandlerFunc, func(i int), func(), *int64) {
				// A grid long enough that the loop stops on bytes, not on
				// its end: ~250 B a line, 2^18 cells.
				seeds := make([]int64, 1<<18)
				for i := range seeds {
					seeds[i] = int64(i)
				}
				cs := bareSweep(SweepSpec{Algorithms: []string{"graph-to-star"}, Workloads: []string{"line"}, Sizes: []int{1 << 20}, Seeds: seeds})
				var total int64
				handler := func(w http.ResponseWriter, r *http.Request) {
					streamNDJSON(w, r, cs.cells, cs.renderCell, 0, 0, timeout, mt.cellsSub)
				}
				out := expt.Outcome{N: 1 << 20, Rounds: 40, TotalActivations: 1 << 21, LeaderOK: true}
				publish := func(i int) {
					c := SweepCell{Index: i, Algorithm: "graph-to-star", Workload: "line", N: 1 << 20, Seed: int64(i), Outcome: &out}
					total += int64(len(jsonFrame(c)))
					if err := record(cs, c); err != nil {
						t.Error(err)
					}
				}
				return handler, publish, cs.cells.close, &total
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mt := newMetrics(obs.NewRegistry(), nil)
			// Push enough bytes to overrun any socket buffering between
			// server and stalled client.
			produce := func(publish func(i int), total *int64) time.Duration {
				start := time.Now()
				for i := 0; *total < 32<<20; i++ {
					publish(i)
				}
				return time.Since(start)
			}
			// The yardstick for the producer: the same loop into a log
			// nobody subscribes to.
			_, publish, _, total := tc.serve(mt, 0)
			bareElapsed := produce(publish, total)

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
				resp, err := client.Get(srv.URL + "/stream")
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
			producerElapsed := produce(publish, total)

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
			// blocking (e.g. bounded per-subscriber queues). Relative, not
			// absolute: under the race detector the loop alone takes
			// seconds, and the healthy reader shares the cores with it.
			t.Logf("producer: %v bare, %v with a stalled and a healthy subscriber", bareElapsed, producerElapsed)
			if producerElapsed > 5*bareElapsed+time.Second {
				t.Errorf("producer took %v with a stalled subscriber attached, %v with none", producerElapsed, bareElapsed)
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
// package with -race). The log is a run's: subscribers render its
// records in all three formats, as /rounds and both /topology formats
// do, while the producer is live.
func TestStreamFanoutRace(t *testing.T) {
	t.Parallel()
	ts := bareReplay()
	s := ts.log
	const items, subs = 400, 9
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ts.publishHeader(3, []int32{0, 1})
		for i := 1; i <= items; i++ {
			ts.publishDelta(temporal.RoundDelta{Round: i, Activate: []int32{0, int32(i)}, Deactivate: []int32{1, 2},
				Stats: temporal.RoundStats{Round: i, Activated: 1, Deactivated: 1, ActiveEdges: 1, ActivatedAlive: i}})
		}
		ts.close()
	}()
	want := []func(i int) string{
		func(i int) string { // /rounds
			return fmt.Sprintf(`{"Round":%d,"Activated":1,"Deactivated":1,"ActiveEdges":1,"ActivatedAlive":%d}`+"\n", i, i)
		},
		func(i int) string { // /topology
			if i == 0 {
				return `{"round":0,"n":3,"edges":[0,1]}` + "\n"
			}
			return fmt.Sprintf(`{"round":%d,"activate":[0,%d],"deactivate":[1,2]}`+"\n", i, i)
		},
		func(i int) string { // /topology?format=packed
			if i == 0 {
				return string(jsonFrame(packedTopologyFrame{N: 3, P: base64.StdEncoding.EncodeToString(packPairs(nil, []int32{0, 1}))}))
			}
			lists := packPairs(packPairs(nil, []int32{0, int32(i)}), []int32{1, 2})
			return string(jsonFrame(packedTopologyFrame{Round: i, P: base64.StdEncoding.EncodeToString(lists)}))
		},
	}
	renders := []renderFunc{renderRounds, renderJSON, renderPacked}
	for i := 0; i < subs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			format := i % len(renders)
			cursor := 0
			if format == 0 {
				cursor = 1 // /rounds skips the header
			}
			var buf []byte
			for {
				batch, ok := s.WaitFrames(context.Background(), cursor)
				if !ok {
					return
				}
				for k, rec := range batch {
					buf = renders[format](buf[:0], rec, cursor+k)
					if got, want := string(buf), want[format](cursor+k); got != want {
						t.Errorf("record %d rendered %q, want %q", cursor+k, got, want)
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
		}
	}()
	wg.Wait()
	if got := s.Len(); got != items+1 {
		t.Fatalf("published a header and %d rounds, log holds %d records", items, got)
	}
}

// BenchmarkFanout contrasts the hub with the per-connection-encoder
// baseline it replaced: the baseline marshals every item once per
// subscriber, the hub packs it once per stream and each subscriber
// renders the records it reads (RunFanoutBench, the benchmark's
// service.hub_* rows).
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
			for i := 0; i < b.N; i++ {
				if got := RunFanoutBench(items, subs).Encodes; got != items {
					b.Fatalf("hub performed %d encodes, want %d", got, items)
				}
			}
		})
	}
}
