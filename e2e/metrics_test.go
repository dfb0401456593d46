//go:build e2e

package e2e

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"adnet/internal/obs"
)

// scrapeMetrics fetches a process's /metrics page and parses it with
// the strict in-repo exposition parser — a malformed page fails the
// test, exactly as it would fail a Prometheus scrape.
func scrapeMetrics(t *testing.T, base string) *obs.Metrics {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/metrics = %d", base, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	m, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("%s/metrics does not parse: %v", base, err)
	}
	return m
}

// TestFleetMetricsEndToEnd runs a sharded sweep across real processes
// and then scrapes /metrics on the coordinator and both workers,
// asserting the core series are consistent with the sweep the fabric
// just executed: the coordinator dispatched every shard and ran no
// simulations, the workers' cell counters add up to the grid, and all
// three processes export parseable expositions with HTTP series.
// The coordinator also runs with -pprof, pinning the profiler gate.
func TestFleetMetricsEndToEnd(t *testing.T) {
	w1 := startServer(t)
	w2 := startServer(t)
	coord := startServer(t, "-coordinator", "-fleet-workers", w1+","+w2, "-pprof", "-log-format", "json")

	const (
		sweepBody = `{"algorithms":["graph-to-star","flood"],"workloads":["line"],"sizes":[16,24],"seeds":[1,2,3]}`
		cells     = 2 * 2 * 3
		shards    = 2 * 2 // one shard per (algorithm, workload, n) group
	)
	id, code := postSweep(t, coord, sweepBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d", code)
	}
	status := awaitSweep(t, coord, id, "done")
	var summary struct {
		Executed int `json:"executed"`
		Errors   int `json:"errors"`
	}
	json.Unmarshal(status["summary"], &summary)
	if summary.Errors != 0 {
		t.Fatalf("sweep finished with %d errors", summary.Errors)
	}

	cm := scrapeMetrics(t, coord)
	if v, _ := cm.Value("adnet_fleet_shards_dispatched_total", nil); v < shards {
		t.Errorf("coordinator dispatched %v shards, want >= %d", v, shards)
	}
	if v, _ := cm.Value("adnet_fleet_shards_redispatched_total", nil); v != 0 {
		t.Errorf("re-dispatches = %v, want 0 (no worker died)", v)
	}
	if v, _ := cm.Value("adnet_fleet_workers", nil); v != 2 {
		t.Errorf("fleet worker gauge = %v, want 2", v)
	}
	if v, _ := cm.Value("adnet_fleet_workers_healthy", nil); v != 2 {
		t.Errorf("healthy worker gauge = %v, want 2", v)
	}
	if v, _ := cm.Value("adnet_engine_runs_total", nil); v != 0 {
		t.Errorf("coordinator engine runs = %v, want 0 (all work distributed)", v)
	}
	if v, _ := cm.Value("adnet_sweep_jobs_total", map[string]string{"state": "done"}); v != 1 {
		t.Errorf("coordinator sweep jobs done = %v, want 1", v)
	}
	// The coordinator counts every merged cell exactly once.
	if total, _ := cm.Sum("adnet_sweep_cells_total", nil); total != cells {
		t.Errorf("coordinator merged-cell counters sum to %v, want %d", total, cells)
	}
	if v, _ := cm.Value("adnet_http_requests_total",
		map[string]string{"route": "POST /v1/sweeps", "code": "202"}); v != 1 {
		t.Errorf("coordinator POST /v1/sweeps 202s = %v, want 1", v)
	}

	// Across the two workers the shard sweeps cover the whole grid:
	// cell counters sum to the grid size, engine runs to the executed
	// count the coordinator's summary reported.
	var workerCells, workerRuns, shardObs float64
	var cellsEncoded, cellFramesSent, cellBytesSent, subsDropped float64
	for _, w := range []string{w1, w2} {
		wm := scrapeMetrics(t, w)
		c, _ := wm.Sum("adnet_sweep_cells_total", nil)
		workerCells += c
		// Broadcast-hub counters: each worker's shard sweep published
		// its cells through the hub (one encode per cell), and the
		// coordinator drained them over GET /v1/sweeps/{id}/cells.
		v, _ := wm.Value("adnet_stream_frames_encoded_total", map[string]string{"stream": "cells"})
		cellsEncoded += v
		v, _ = wm.Value("adnet_stream_frames_sent_total", map[string]string{"stream": "cells"})
		cellFramesSent += v
		v, _ = wm.Value("adnet_stream_bytes_sent_total", map[string]string{"stream": "cells"})
		cellBytesSent += v
		v, _ = wm.Sum("adnet_stream_subscribers_dropped_total", nil)
		subsDropped += v
		r, _ := wm.Value("adnet_engine_runs_total", nil)
		workerRuns += r
		if v, ok := wm.Value("adnet_http_request_duration_seconds_count",
			map[string]string{"route": "POST /v1/sweeps"}); !ok || v < 1 {
			t.Errorf("worker %s has no POST /v1/sweeps latency series (%v/%v)", w, v, ok)
		}
		s, _ := wm.Sum("adnet_fleet_shard_duration_seconds_count", nil)
		shardObs += s
	}
	if workerCells != cells {
		t.Errorf("workers' cell counters sum to %v, want %d", workerCells, cells)
	}
	// Encode-once fan-out across the fleet: every cell was encoded
	// exactly once on its worker, every encoded frame crossed the wire
	// to the coordinator's merge tail, and no subscriber was dropped.
	if cellsEncoded != cells {
		t.Errorf("workers encoded %v cell frames, want %d (one per cell)", cellsEncoded, cells)
	}
	if cellFramesSent < cells {
		t.Errorf("workers fanned out %v cell frames, want >= %d (coordinator tailed every shard)", cellFramesSent, cells)
	}
	if cellBytesSent <= 0 {
		t.Errorf("workers fanned out %v cell bytes, want > 0", cellBytesSent)
	}
	if subsDropped != 0 {
		t.Errorf("workers dropped %v stream subscribers, want 0", subsDropped)
	}
	// The coordinator republishes each merged cell through its own hub.
	if v, _ := cm.Value("adnet_stream_frames_encoded_total",
		map[string]string{"stream": "cells"}); v != cells {
		t.Errorf("coordinator encoded %v merged cell frames, want %d", v, cells)
	}
	if workerRuns != float64(summary.Executed) {
		t.Errorf("workers' engine runs sum to %v, want %d (summary.executed)", workerRuns, summary.Executed)
	}
	// Workers are not coordinators: they export no fleet shard series.
	if shardObs != 0 {
		t.Errorf("workers export %v fleet shard observations, want 0", shardObs)
	}
	// The coordinator folded one latency observation per shard.
	if v, _ := cm.Sum("adnet_fleet_shard_duration_seconds_count", nil); v != shards {
		t.Errorf("coordinator shard-latency observations = %v, want %d", v, shards)
	}

	// -pprof mounts the profiler on the coordinator only.
	resp, err := http.Get(coord + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("coordinator /debug/pprof/ = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(w1 + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Errorf("worker without -pprof serves /debug/pprof/ (%d)", resp.StatusCode)
	}
}
