package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"adnet/internal/dynamics"
	"adnet/internal/obs"
)

// scrape fetches and strictly parses the server's /metrics page.
func scrape(t *testing.T, srv *httptest.Server) *obs.Metrics {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	m, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return m
}

func metricValue(t *testing.T, m *obs.Metrics, name string, labels map[string]string) float64 {
	t.Helper()
	v, ok := m.Value(name, labels)
	if !ok {
		t.Fatalf("metric %s%v absent", name, labels)
	}
	return v
}

// TestHealthzWireShape is the regression test for the healthz
// payload: decoding into a raw map pins the field names the probes
// depend on, including the uptime/go_version additions.
func TestHealthzWireShape(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 1})

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw struct {
		Status string         `json:"status"`
		Stats  map[string]any `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if raw.Status != "ok" {
		t.Fatalf("status = %q", raw.Status)
	}
	for _, key := range []string{
		"workers", "queue_depth", "queued", "jobs", "sweeps",
		"runs_executed", "cache_size", "cache_hits", "cache_misses",
		"coordinator", "fleet_workers", "fleet_healthy",
		"stream_bytes", "uptime_seconds", "go_version",
	} {
		if _, ok := raw.Stats[key]; !ok {
			t.Errorf("healthz stats missing %q: %v", key, raw.Stats)
		}
	}
	if up, _ := raw.Stats["uptime_seconds"].(float64); up < 0 {
		t.Errorf("uptime_seconds = %v, want >= 0", up)
	}
	if gv, _ := raw.Stats["go_version"].(string); !strings.HasPrefix(gv, "go") {
		t.Errorf("go_version = %q", raw.Stats["go_version"])
	}
}

// TestMetricsCoverSweepLifecycle drives one local sweep through the
// HTTP surface and checks the exported series against the sweep's own
// summary — the same consistency contract the e2e fleet scrape
// asserts across processes.
func TestMetricsCoverSweepLifecycle(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 1, SweepWorkers: 2})

	spec := SweepSpec{
		Algorithms: []string{"graph-to-star"},
		Workloads:  []string{"line"},
		Sizes:      []int{16, 32},
		Seeds:      []int64{1, 2, 3},
	}
	st, code := postSweepJob(t, srv, spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d", code)
	}
	awaitSweepState(t, srv, st.ID, StateDone)

	m := scrape(t, srv)
	cells := float64(2 * 3)
	// The line workload ignores the seed, so seeds 2 and 3 of each
	// size hit the cache populated by seed 1: total = ok + cached.
	ok, _ := m.Sum("adnet_sweep_cells_total", map[string]string{"status": "ok"})
	cached, _ := m.Sum("adnet_sweep_cells_total", map[string]string{"status": "cached"})
	errs, _ := m.Sum("adnet_sweep_cells_total", map[string]string{"status": "error"})
	if ok+cached != cells || errs != 0 {
		t.Errorf("cells ok=%v cached=%v errors=%v, want ok+cached=%v errors=0", ok, cached, errs, cells)
	}
	if runs := metricValue(t, m, "adnet_engine_runs_total", nil); runs != ok {
		t.Errorf("engine runs = %v, want %v (one per executed cell)", runs, ok)
	}
	if v := metricValue(t, m, "adnet_engine_rounds_per_run_count", nil); v != ok {
		t.Errorf("rounds-per-run observations = %v, want %v", v, ok)
	}
	if v := metricValue(t, m, "adnet_sweep_cell_duration_seconds_count", nil); v != ok {
		t.Errorf("cell duration observations = %v, want %v (executed cells only)", v, ok)
	}
	if v := metricValue(t, m, "adnet_sweep_jobs_total", map[string]string{"state": "done"}); v != 1 {
		t.Errorf("sweep jobs done = %v, want 1", v)
	}
	if v := metricValue(t, m, "adnet_sweep_grid_utilization_ratio_count", nil); v != 1 {
		t.Errorf("grid utilization folds = %v, want 1", v)
	}
	if v := metricValue(t, m, "adnet_sweeps_active", nil); v != 0 {
		t.Errorf("sweeps active after completion = %v, want 0", v)
	}
	// The HTTP middleware counted the submission and the status polls.
	if v := metricValue(t, m, "adnet_http_requests_total",
		map[string]string{"route": "POST /v1/sweeps", "code": "202"}); v != 1 {
		t.Errorf("POST /v1/sweeps 202s = %v, want 1", v)
	}
	if v, ok := m.Value("adnet_http_request_duration_seconds_count",
		map[string]string{"route": "GET /v1/sweeps/{id}"}); !ok || v < 1 {
		t.Errorf("status-poll latency series = %v/%v, want >= 1", v, ok)
	}
}

// TestDynamicsMetricsCountExecutedCellsOnly: the adnet_dynamics_*
// series count executed runs, so a resubmitted dynamics sweep, whose
// cells the outcome index answers, moves none of them.
func TestDynamicsMetricsCountExecutedCellsOnly(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 1, SweepWorkers: 2})
	spec := SweepSpec{
		Algorithms: []string{"flood"},
		Workloads:  []string{"line", "ring"},
		Sizes:      []int{16},
		Seeds:      []int64{1, 2, 3},
		Dynamics:   &dynamics.Spec{Class: dynamics.ClassEdgeChurn, Rate: 2},
	}
	series := []string{"adnet_dynamics_runs_total", "adnet_dynamics_env_activations_total",
		"adnet_dynamics_env_deactivations_total", "adnet_dynamics_crashes_total", "adnet_dynamics_restarts_total"}
	read := func() []float64 {
		m := scrape(t, srv)
		out := make([]float64, len(series))
		for i, name := range series {
			out[i], _ = m.Value(name, nil)
		}
		return out
	}

	st, _ := postSweepJob(t, srv, spec)
	first := awaitSweepState(t, srv, st.ID, StateDone)
	after := read()
	if cells := spec.NumCells(); first.Summary.Executed != cells || after[0] != float64(cells) || after[1]+after[2] <= 0 {
		t.Fatalf("first sweep executed %d cells and counted %v, want %d runs and some env edits", first.Summary.Executed, after, cells)
	}
	st, _ = postSweepJob(t, srv, spec)
	again := awaitSweepState(t, srv, st.ID, StateDone)
	if again.Summary.CacheHits != spec.NumCells() || again.Summary.Executed != 0 {
		t.Fatalf("resubmitted sweep summary = %+v, want every cell a cache hit", *again.Summary)
	}
	if got := read(); !slices.Equal(got, after) {
		t.Errorf("resubmitting moved the dynamics counters %v from %v to %v", series, after, got)
	}
}

// TestMetricsCountRunSubmissions checks the submission-resolution
// counter across the new/cached paths plus terminal job states.
func TestMetricsCountRunSubmissions(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 1})

	sub, _ := postRun(t, srv, fastSpec(91))
	awaitDone(t, srv, sub.Job.ID)
	if _, code := postRun(t, srv, fastSpec(91)); code != http.StatusOK {
		t.Fatalf("repeat POST = %d, want 200", code)
	}

	m := scrape(t, srv)
	if v := metricValue(t, m, "adnet_run_submissions_total", map[string]string{"result": "new"}); v != 1 {
		t.Errorf("new submissions = %v, want 1", v)
	}
	if v := metricValue(t, m, "adnet_run_submissions_total", map[string]string{"result": "cached"}); v != 1 {
		t.Errorf("cached submissions = %v, want 1", v)
	}
	if v := metricValue(t, m, "adnet_run_jobs_total", map[string]string{"state": "done"}); v != 1 {
		t.Errorf("done jobs = %v, want 1", v)
	}
	if v := metricValue(t, m, "adnet_runs_executed_total", nil); v != 1 {
		t.Errorf("runs executed = %v, want 1", v)
	}
	if v := metricValue(t, m, "adnet_cache_hits_total", nil); v < 1 {
		t.Errorf("cache hits = %v, want >= 1", v)
	}
}

// TestMetricsSweepGateRejections fills the sweep gate and checks the
// load-shedding counter moves with the 503.
func TestMetricsSweepGateRejections(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 1, SweepWorkers: 1, MaxConcurrentSweeps: 1})

	// One slow sweep occupies the gate; the next submission bounces.
	st, code := postSweepJob(t, srv, longSweepSpec(1, 2, 3, 4))
	if code != http.StatusAccepted {
		t.Fatalf("first sweep = %d", code)
	}
	if _, code := postSweepJob(t, srv, slowSweepSpec(9)); code != http.StatusServiceUnavailable {
		t.Fatalf("second sweep = %d, want 503", code)
	}

	m := scrape(t, srv)
	if v := metricValue(t, m, "adnet_sweep_gate_rejections_total", nil); v != 1 {
		t.Errorf("gate rejections = %v, want 1", v)
	}
	if v := metricValue(t, m, "adnet_sweeps_active", nil); v != 1 {
		t.Errorf("sweeps active = %v, want 1", v)
	}
	if v := metricValue(t, m, "adnet_http_requests_total",
		map[string]string{"route": "POST /v1/sweeps", "code": "503"}); v != 1 {
		t.Errorf("503 counter = %v, want 1", v)
	}

	// Cancel so server shutdown does not wait for the grid.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sweeps/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	awaitSweepState(t, srv, st.ID, StateCanceled)
}

// TestRequestIDPropagatesToResponse pins the request-ID contract on
// the service surface: inbound IDs are echoed, absent IDs are
// assigned.
func TestRequestIDPropagatesToResponse(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 1})

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
	req.Header.Set(obs.RequestIDHeader, "test-req-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "test-req-1" {
		t.Errorf("echoed request ID = %q, want test-req-1", got)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); len(got) != 16 {
		t.Errorf("assigned request ID = %q, want 16 hex chars", got)
	}
}

// TestMetricsCoverBroadcastHub pins the hub instrument family: one
// encode per published frame regardless of subscribers, fan-out
// counters moving with each subscriber, and the gauge returning to
// zero after the streams drain.
func TestMetricsCoverBroadcastHub(t *testing.T) {
	t.Parallel()
	srv, m := newTestServer(t, Config{Workers: 1})

	sub, _ := postRun(t, srv, fastSpec(77))
	awaitDone(t, srv, sub.Job.ID)
	job, _ := m.Get(sub.Job.ID)
	rounds := float64(job.Status().Rounds)

	// Two subscribers per stream kind: encodes must not double.
	var jsonBytes int64
	for i := 0; i < 2; i++ {
		for _, path := range []string{"/rounds", "/topology", "/topology?format=packed"} {
			if n := len(drainBody(t, srv, "/v1/runs/"+sub.Job.ID+path)); path == "/topology" {
				jsonBytes += int64(n)
			}
		}
	}

	mx := scrape(t, srv)
	if v := metricValue(t, mx, "adnet_stream_frames_encoded_total",
		map[string]string{"stream": "rounds"}); v != rounds {
		t.Errorf("rounds encodes = %v, want %v (one per round, any subscriber count)", v, rounds)
	}
	// Topology encodes one header plus one delta per round, once: the
	// packed line the run holds. The json format is rendered from it per
	// subscriber and has no encode series; the subscriber-side series
	// label what a client asked for, and count the rendered bytes.
	if v := metricValue(t, mx, "adnet_stream_frames_encoded_total",
		map[string]string{"stream": "topology_packed"}); v != rounds+1 {
		t.Errorf("topology_packed encodes = %v, want %v", v, rounds+1)
	}
	if v, ok := mx.Value("adnet_stream_frames_encoded_total",
		map[string]string{"stream": "topology"}); ok {
		t.Errorf("topology encodes = %v, want no such series (rendered, never encoded)", v)
	}
	for _, kind := range []string{"topology", "topology_packed"} {
		if v := metricValue(t, mx, "adnet_stream_frames_sent_total",
			map[string]string{"stream": kind}); v != 2*(rounds+1) {
			t.Errorf("%s frames sent = %v, want %v (two subscribers)", kind, v, 2*(rounds+1))
		}
	}
	if v := metricValue(t, mx, "adnet_stream_bytes_sent_total",
		map[string]string{"stream": "topology"}); v != float64(jsonBytes) {
		t.Errorf("topology bytes sent = %v, want the %d rendered bytes the two subscribers read", v, jsonBytes)
	}
	if v := metricValue(t, mx, "adnet_stream_frames_sent_total",
		map[string]string{"stream": "rounds"}); v != 2*rounds {
		t.Errorf("rounds frames sent = %v, want %v", v, 2*rounds)
	}
	if v := metricValue(t, mx, "adnet_stream_bytes_sent_total",
		map[string]string{"stream": "rounds"}); v <= 0 {
		t.Errorf("rounds bytes sent = %v, want > 0", v)
	}
	if v := metricValue(t, mx, "adnet_stream_encode_duration_seconds_count", nil); v <= 0 {
		t.Errorf("encode latency observations = %v, want > 0", v)
	}
	for _, kind := range []string{"rounds", "topology", "topology_packed"} {
		if v := metricValue(t, mx, "adnet_stream_subscribers",
			map[string]string{"stream": kind}); v != 0 {
			t.Errorf("%s subscribers after drain = %v, want 0", kind, v)
		}
		if v := metricValue(t, mx, "adnet_stream_subscribers_dropped_total",
			map[string]string{"stream": kind}); v != 0 {
			t.Errorf("%s dropped = %v, want 0 (no stalled readers here)", kind, v)
		}
	}
}
