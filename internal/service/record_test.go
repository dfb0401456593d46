package service

import (
	"encoding/base64"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"adnet/internal/temporal"
)

// randomPairs is a canonical flat slot-pair list of up to max pairs:
// first slots ascending, each second slot above its first. Slots reach
// past 2^21, so varints of every width up to four bytes appear.
func randomPairs(rng *rand.Rand, max int) []int32 {
	pairs := make([]int32, 0, 2*max)
	a := int32(0)
	for range rng.IntN(max + 1) {
		a += int32(rng.IntN(3) * rng.IntN(1<<rng.IntN(22)))
		pairs = append(pairs, a, a+1+int32(rng.IntN(1<<rng.IntN(22))))
	}
	return pairs
}

// randomCount is a RoundStats field: 0, a one-byte varint or one of
// up to five bytes.
func randomCount(rng *rand.Rand) int {
	switch rng.IntN(3) {
	case 0:
		return 0
	case 1:
		return rng.IntN(128)
	}
	return rng.IntN(1 << 31)
}

// TestRecordRendersMatchJSONFrame is the appenders' property test: over
// random records — zeros, multi-byte varints, empty lists, environment
// lists — renderRounds, renderPacked and renderJSON append exactly
// jsonFrame of the RoundStats, packed frame and TopologyFrame the hooks
// were handed, and the log counts exactly the /rounds and packed bytes
// as served.
func TestRecordRendersMatchJSONFrame(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(39, 1))
	for run := range 200 {
		rp := bareReplay()
		var rounds, packed, topology []byte
		n := randomCount(rng)
		edges := randomPairs(rng, 8)
		rp.publishHeader(n, edges)
		packed = append(packed, jsonFrame(packedTopologyFrame{N: n, P: base64.StdEncoding.EncodeToString(packPairs(nil, edges))})...)
		topology = append(topology, jsonFrame(TopologyFrame{N: n, Edges: edges})...)
		for r := range rng.IntN(6) {
			d := temporal.RoundDelta{
				Round:      r + 1 + rng.IntN(2)*rng.IntN(1<<20),
				Activate:   randomPairs(rng, 4),
				Deactivate: randomPairs(rng, 4),
				Stats: temporal.RoundStats{Round: randomCount(rng), Activated: randomCount(rng), Deactivated: randomCount(rng),
					ActiveEdges: randomCount(rng), ActivatedAlive: randomCount(rng)},
			}
			if rng.IntN(2) == 0 {
				d.EnvActivate, d.EnvDeactivate = randomPairs(rng, 3), randomPairs(rng, 3)
			}
			rp.publishDelta(d)
			lists := packPairs(packPairs(nil, d.Activate), d.Deactivate)
			if len(d.EnvActivate) > 0 || len(d.EnvDeactivate) > 0 {
				lists = packPairs(packPairs(lists, d.EnvActivate), d.EnvDeactivate)
			}
			rounds = append(rounds, jsonFrame(d.Stats)...)
			packed = append(packed, jsonFrame(packedTopologyFrame{Round: d.Round, P: base64.StdEncoding.EncodeToString(lists)})...)
			topology = append(topology, jsonFrame(TopologyFrame{Round: d.Round, Activate: d.Activate, Deactivate: d.Deactivate,
				EnvActivate: d.EnvActivate, EnvDeactivate: d.EnvDeactivate})...)
		}
		rp.close()
		for name, c := range map[string]struct{ got, want []byte }{
			"rounds":   {renderLog(rp.log, renderRounds, 1), rounds},
			"packed":   {packedBody(rp.log), packed},
			"topology": {renderTopology(rp.log), topology},
		} {
			if string(c.got) != string(c.want) {
				t.Fatalf("run %d: %s render differs from jsonFrame:\ngot  %q\nwant %q", run, name, c.got, c.want)
			}
		}
		if got, want := rp.FrameBytes(), int64(len(rounds)+len(packed)); got != want {
			t.Fatalf("run %d: log counts %d served bytes, /rounds and packed /topology serve %d", run, got, want)
		}
	}
}

// TestRecordLogHoldsLessThanItServes pins what a finished
// graph-to-star/line/512 run holds: its records, against the bytes
// /rounds and /topology?format=packed serve for them (stream_bytes).
func TestRecordLogHoldsLessThanItServes(t *testing.T) {
	t.Parallel()
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	job, _, err := m.Submit(RunSpec{Algorithm: "graph-to-star", Workload: "line", N: 512, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateDone)
	var held int
	for _, rec := range logLines(job.log) {
		held += len(rec)
	}
	const wantHeld, wantServed = 20112, 36659
	if served := job.FrameBytes(); held != wantHeld || served != wantServed {
		t.Errorf("records hold %d bytes and serve %d, want %d and %d", held, served, wantHeld, wantServed)
	}
	if 100*held > 55*wantServed {
		t.Errorf("records hold %d bytes, over 55%% of the %d served", held, wantServed)
	}
}

// TestRunStreamCursorsAcrossTheHeader pins the cursor contract of a
// run's three streams where the header offset shows: /rounds frame i is
// record i+1, /topology frame i is record i, and each trailer counts
// its own endpoint's frames. It covers a run subscribed to while queued
// (its streams tail it once it runs), a run canceled while queued (no
// record at all), a failed run (max_rounds too small) and a run
// canceled mid-way.
func TestRunStreamCursorsAcrossTheHeader(t *testing.T) {
	t.Parallel()
	srv, m := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	base := func(id string) string { return srv.URL + "/v1/runs/" + id }
	del := func(id string) {
		req, _ := http.NewRequest(http.MethodDelete, base(id), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("DELETE %s = %d, want 204", id, resp.StatusCode)
		}
	}
	paths := []string{"/rounds", "/topology?format=json", "/topology?format=packed"}
	frames := func(path string, rounds int) int {
		if path == "/rounds" {
			return rounds
		}
		return rounds + 1
	}
	cursorURL := func(id, path string, cursor int) string {
		sep := "?"
		if path != "/rounds" {
			sep = "&"
		}
		return base(id) + path + sep + "cursor=" + strconv.Itoa(cursor)
	}
	// check drains every stream of a terminal run of the given rounds
	// from every cursor 0..frames+1.
	check := func(name, id string, rounds int) {
		t.Helper()
		if st := getStatus(t, srv, id); st.Rounds != rounds {
			t.Fatalf("%s: rounds_streamed = %d, want %d", name, st.Rounds, rounds)
		}
		for _, path := range paths {
			total := frames(path, rounds)
			full, trailer := streamLines(t, base(id)+path)
			if len(full) != total || trailer != strconv.Itoa(total) {
				t.Fatalf("%s %s: %d lines, trailer %q, want %d and %d", name, path, len(full), trailer, total, total)
			}
			for i, line := range full {
				var f struct{ Round int } // "Round" on /rounds, "round" on /topology
				if err := json.Unmarshal([]byte(line), &f); err != nil {
					t.Fatalf("%s %s line %d: %v", name, path, i, err)
				}
				if want := i + 1 + rounds - total; f.Round != want {
					t.Fatalf("%s %s line %d is round %d, want %d", name, path, i, f.Round, want)
				}
			}
			for cursor := 0; cursor <= total+1; cursor++ {
				tail, trailer := streamLines(t, cursorURL(id, path, cursor))
				if want := full[min(cursor, total):]; !slices.Equal(tail, want) || trailer != strconv.Itoa(max(cursor, total)) {
					t.Fatalf("%s %s cursor=%d: %d lines, trailer %q, want the last %d lines and %d",
						name, path, cursor, len(tail), trailer, len(want), max(cursor, total))
				}
			}
		}
	}

	// Queued behind a run that cannot finish first: one subscriber per
	// stream and cursor attaches before the run starts.
	blocker, _ := postRun(t, srv, longSpec(1))
	queued, _ := postRun(t, srv, fastSpec(1))
	canceled, _ := postRun(t, srv, fastSpec(2))
	type drain struct {
		path    string
		cursor  int
		lines   []string
		trailer string
	}
	var drains []*drain
	for _, path := range paths {
		for cursor := range 3 {
			drains = append(drains, &drain{path: path, cursor: cursor})
		}
	}
	var wg sync.WaitGroup
	for _, d := range drains {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(cursorURL(queued.Job.ID, d.path, d.cursor))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var err2 error
			if d.lines, d.trailer, err2 = readLines(resp); err2 != nil {
				t.Error(err2)
			}
		}()
	}
	waitFor(t, func() bool {
		return m.metrics.roundsSub.subscribers.Value()+m.metrics.topoSub.subscribers.Value()+
			m.metrics.packedSub.subscribers.Value() == int64(len(drains))
	}, "the subscribers never attached")
	if st := getStatus(t, srv, queued.Job.ID); st.State != StateQueued || st.Rounds != 0 {
		t.Fatalf("the queued run is %s with %d rounds streamed", st.State, st.Rounds)
	}
	del(canceled.Job.ID)
	del(blocker.Job.ID)
	wg.Wait()
	rounds := awaitDone(t, srv, queued.Job.ID).Outcome.Rounds
	for _, d := range drains {
		full, _ := streamLines(t, base(queued.Job.ID)+d.path)
		if total := frames(d.path, rounds); !slices.Equal(d.lines, full[d.cursor:]) || d.trailer != strconv.Itoa(total) {
			t.Fatalf("queued %s cursor=%d tailed %d lines, trailer %q, want %d and %d",
				d.path, d.cursor, len(d.lines), d.trailer, total-d.cursor, total)
		}
	}
	check("queued", queued.Job.ID, rounds)

	// Canceled while queued: no header, no round, every stream empty.
	if st := awaitTerminal(t, srv, canceled.Job.ID); st.State != StateCanceled {
		t.Fatalf("run canceled while queued ended %s", st.State)
	}
	for _, path := range paths {
		for cursor := range 3 {
			if lines, trailer := streamLines(t, cursorURL(canceled.Job.ID, path, cursor)); len(lines) != 0 || trailer != strconv.Itoa(cursor) {
				t.Fatalf("canceled-while-queued %s cursor=%d: %d lines, trailer %q", path, cursor, len(lines), trailer)
			}
		}
	}
	if st := getStatus(t, srv, canceled.Job.ID); st.Rounds != 0 {
		t.Fatalf("canceled-while-queued rounds_streamed = %d", st.Rounds)
	}

	// Failed: the round limit stops it with what it streamed so far.
	short := fastSpec(3)
	short.MaxRounds = 3
	failed, _ := postRun(t, srv, short)
	if st := awaitTerminal(t, srv, failed.Job.ID); st.State != StateFailed {
		t.Fatalf("max_rounds=3 run ended %s", st.State)
	}
	check("failed", failed.Job.ID, 3)

	// Canceled mid-way: whatever rounds it ran.
	long, _ := postRun(t, srv, longSpec(2))
	for getStatus(t, srv, long.Job.ID).Rounds < 2 {
		time.Sleep(time.Millisecond)
	}
	del(long.Job.ID)
	st := awaitTerminal(t, srv, long.Job.ID)
	if st.State != StateCanceled {
		t.Fatalf("DELETEd run ended %s", st.State)
	}
	check("canceled", long.Job.ID, st.Rounds)
}
