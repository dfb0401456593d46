package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"adnet/internal/temporal"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(cfg)
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return srv, m
}

func postRun(t *testing.T, srv *httptest.Server, spec RunSpec) (submitResponse, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out submitResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

func getStatus(t *testing.T, srv *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/runs/%s = %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// awaitTerminal polls a job until it is done, failed or canceled.
func awaitTerminal(t *testing.T, srv *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st := getStatus(t, srv, id); st.State.terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobStatus{}
}

func awaitDone(t *testing.T, srv *httptest.Server, id string) JobStatus {
	t.Helper()
	st := awaitTerminal(t, srv, id)
	if st.State != StateDone {
		t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
	}
	return st
}

func TestAPISubmitAndStatus(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 2})

	sub, code := postRun(t, srv, fastSpec(11))
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", code)
	}
	if sub.Cached || sub.Job.ID == "" {
		t.Fatalf("submit response = %+v", sub)
	}
	st := awaitDone(t, srv, sub.Job.ID)
	if st.Outcome == nil || !st.Outcome.LeaderOK {
		t.Fatalf("outcome = %+v", st.Outcome)
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		t.Error("finished job must carry timestamps")
	}
}

func TestAPICacheHitSkipsSimulation(t *testing.T) {
	t.Parallel()
	srv, m := newTestServer(t, Config{Workers: 2})

	sub, code := postRun(t, srv, fastSpec(12))
	if code != http.StatusAccepted {
		t.Fatalf("first POST = %d, want 202", code)
	}
	first := awaitDone(t, srv, sub.Job.ID)

	hit, code := postRun(t, srv, fastSpec(12))
	if code != http.StatusOK {
		t.Fatalf("repeat POST = %d, want 200 (cache hit)", code)
	}
	if !hit.Cached || !hit.Job.FromCache || hit.Job.State != StateDone {
		t.Fatalf("repeat submit = %+v, want completed cache hit", hit)
	}
	if *hit.Job.Outcome != *first.Outcome {
		t.Fatalf("cached outcome differs: %+v vs %+v", hit.Job.Outcome, first.Outcome)
	}
	if runs := m.RunsExecuted(); runs != 1 {
		t.Fatalf("RunsExecuted = %d, want 1 — cache hit must not re-simulate", runs)
	}
	// The cached job's stream replays the full per-round history.
	lines := readRounds(t, srv, hit.Job.ID)
	if len(lines) != first.Outcome.Rounds {
		t.Fatalf("cached stream has %d rounds, want %d", len(lines), first.Outcome.Rounds)
	}
}

func TestAPIConcurrentSubmissions(t *testing.T) {
	t.Parallel()
	srv, m := newTestServer(t, Config{Workers: 4, QueueDepth: 64})

	const clients = 12
	type result struct {
		id   string
		err  error
		code int
	}
	results := make(chan result, clients)
	for i := 0; i < clients; i++ {
		go func(seed int64) {
			body, _ := json.Marshal(fastSpec(seed))
			resp, err := http.Post(srv.URL+"/v1/runs", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- result{err: err}
				return
			}
			defer resp.Body.Close()
			var sub submitResponse
			err = json.NewDecoder(resp.Body).Decode(&sub)
			results <- result{id: sub.Job.ID, err: err, code: resp.StatusCode}
		}(int64(i))
	}
	ids := make([]string, 0, clients)
	for i := 0; i < clients; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.code != http.StatusAccepted {
			t.Fatalf("concurrent POST = %d, want 202", r.code)
		}
		ids = append(ids, r.id)
	}
	for _, id := range ids {
		st := awaitDone(t, srv, id)
		if st.Outcome == nil || !st.Outcome.LeaderOK {
			t.Fatalf("job %s: outcome %+v", id, st.Outcome)
		}
	}
	if runs := m.RunsExecuted(); runs != clients {
		t.Fatalf("RunsExecuted = %d, want %d", runs, clients)
	}
}

// readRounds consumes the NDJSON stream to EOF, validating every line.
func readRounds(t *testing.T, srv *httptest.Server, id string) []temporal.RoundStats {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/runs/" + id + "/rounds")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET rounds = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var rounds []temporal.RoundStats
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rs temporal.RoundStats
		if err := json.Unmarshal([]byte(line), &rs); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		rounds = append(rounds, rs)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rounds
}

func TestAPIRoundsStreamsLiveNDJSON(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 1})

	// Subscribe while the job is still queued/running: the stream
	// must tail rounds live and terminate when the job does.
	sub, code := postRun(t, srv, slowSpec(21))
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	rounds := readRounds(t, srv, sub.Job.ID)
	st := awaitDone(t, srv, sub.Job.ID)
	if len(rounds) == 0 {
		t.Fatal("live stream delivered no rounds")
	}
	if len(rounds) != st.Outcome.Rounds {
		t.Fatalf("streamed %d rounds, outcome ran %d", len(rounds), st.Outcome.Rounds)
	}
	for i, rs := range rounds {
		if rs.Round != i+1 {
			t.Fatalf("line %d has round %d, want %d", i, rs.Round, i+1)
		}
	}
}

func TestAPIErrors(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 1})

	check := func(method, path, body string, want int) {
		t.Helper()
		req, _ := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			b, _ := io.ReadAll(resp.Body)
			t.Errorf("%s %s = %d (%s), want %d", method, path, resp.StatusCode, b, want)
		}
	}
	check("POST", "/v1/runs", `{not json`, http.StatusBadRequest)
	check("POST", "/v1/runs", `{"algorithm":"nope","workload":"line","n":8}`, http.StatusBadRequest)
	check("POST", "/v1/runs", `{"algorithm":"graph-to-star","workload":"line","n":8,"bogus":1}`, http.StatusBadRequest)
	check("GET", "/v1/runs/run-000000-ffffffff", "", http.StatusNotFound)
	check("GET", "/v1/runs/run-000000-ffffffff/rounds", "", http.StatusNotFound)
	check("DELETE", "/v1/runs/run-000000-ffffffff", "", http.StatusNotFound)
	check("GET", "/v1/nope", "", http.StatusNotFound)
}

// TestAPIQueueFullReturns503: with the one worker busy on a long run
// and the one-deep queue holding a second run, the third POST gets 503.
func TestAPIQueueFullReturns503(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	long, code := postRun(t, srv, longSpec(200))
	if code != http.StatusAccepted {
		t.Fatalf("POST long run = %d", code)
	}
	waitFor(t, func() bool { return getStatus(t, srv, long.Job.ID).State == StateRunning }, "long run never started")
	if _, code := postRun(t, srv, slowSpec(201)); code != http.StatusAccepted {
		t.Fatalf("POST into the empty queue = %d, want 202", code)
	}
	if _, code := postRun(t, srv, slowSpec(202)); code != http.StatusServiceUnavailable {
		t.Fatalf("POST past the full queue = %d, want 503", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/"+long.Job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE long run = %d, want 204", resp.StatusCode)
	}
}

func TestAPICancel(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 1})
	sub, _ := postRun(t, srv, longSpec(31))
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/"+sub.Job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d, want 204", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, srv, sub.Job.ID)
		if st.State == StateCanceled || st.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestAPIIntrospectionAndHealth(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 1})

	var algos []string
	mustGetJSON(t, srv, "/v1/algorithms", &algos)
	if len(algos) == 0 || !slices.Contains(algos, "graph-to-star") {
		t.Errorf("algorithms = %v", algos)
	}
	var loads []string
	mustGetJSON(t, srv, "/v1/workloads", &loads)
	if len(loads) == 0 || !slices.Contains(loads, "line") {
		t.Errorf("workloads = %v", loads)
	}

	sub, _ := postRun(t, srv, fastSpec(41))
	awaitDone(t, srv, sub.Job.ID)
	var health healthResponse
	mustGetJSON(t, srv, "/healthz", &health)
	if health.Status != "ok" {
		t.Errorf("health = %+v", health)
	}
	if health.Stats.Workers != 1 || health.Stats.RunsExecuted != 1 || health.Stats.Jobs != 1 {
		t.Errorf("stats = %+v", health.Stats)
	}

	var jobs []JobStatus
	mustGetJSON(t, srv, "/v1/runs", &jobs)
	if len(jobs) != 1 || jobs[0].ID != sub.Job.ID {
		t.Errorf("job list = %+v", jobs)
	}
}

func mustGetJSON(t *testing.T, srv *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}
