package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"adnet/internal/expt"
	"adnet/internal/fleet"
	"adnet/internal/obs"
	"adnet/internal/service"
	"adnet/internal/sim"
)

// scrapeRegistry renders and strictly re-parses a registry, the same
// round trip a Prometheus scrape takes.
func scrapeRegistry(t *testing.T, reg *obs.Registry) *obs.Metrics {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// startWorker runs a real service manager + HTTP handler — an
// in-process adnet-server — and returns its base URL.
func startWorker(t *testing.T) string {
	t.Helper()
	mgr := service.NewManager(service.Config{
		Workers: 1, SweepWorkers: 1, MaxConcurrentSweeps: 4,
	})
	srv := httptest.NewServer(service.NewHandler(mgr))
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
	})
	return srv.URL
}

func register(t *testing.T, c *fleet.Coordinator, url string) {
	t.Helper()
	if _, err := c.Register(context.Background(), url); err != nil {
		t.Fatalf("register %s: %v", url, err)
	}
}

var testSpec = expt.SweepSpec{
	Algorithms: []string{"graph-to-star", "flood"},
	Workloads:  []string{"line"},
	Sizes:      []int{8, 12},
	Seeds:      []int64{1, 2, 3},
}

// singleProcessAggregate is the reference the fold of a merged cell
// stream (foldOf) must match byte-for-byte.
func singleProcessAggregate(t *testing.T, spec expt.SweepSpec) []byte {
	t.Helper()
	groups, err := expt.AggregateSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(groups)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// foldOf renders the aggregate a coordinator serves for the cells it
// merged.
func foldOf(t *testing.T, merged []expt.CellResult) []byte {
	t.Helper()
	out, err := json.Marshal(expt.Aggregate(merged))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkMergedCells asserts the merged stream kept the wire contract:
// one cell per grid position, in canonical order, with global indices.
func checkMergedCells(t *testing.T, spec expt.SweepSpec, got []expt.CellResult) {
	t.Helper()
	cells := spec.Cells()
	if len(got) != len(cells) {
		t.Fatalf("merged %d cells, grid has %d", len(got), len(cells))
	}
	for i, g := range got {
		want := cells[i]
		if g.Index != i || g.Cell.Algorithm != want.Algorithm || g.Cell.Workload != want.Workload ||
			g.Cell.N != want.N || g.Cell.Seed != want.Seed {
			t.Fatalf("merged cell %d = %+v, want grid cell %+v", i, g, want)
		}
	}
}

// errorCells counts the merged cells that carry an error.
func errorCells(merged []expt.CellResult) int {
	n := 0
	for _, cr := range merged {
		if cr.Err != nil {
			n++
		}
	}
	return n
}

// errText is a merged cell's error text, empty for an outcome cell.
func errText(cr expt.CellResult) string {
	if cr.Err == nil {
		return ""
	}
	return cr.Err.Error()
}

// TestWorkersListInRegistrationOrder: Workers lists by registration,
// not by ID string, which puts worker-1000 before worker-999.
func TestWorkersListInRegistrationOrder(t *testing.T) {
	t.Parallel()
	c := fleet.New(fleet.Config{})
	fleet.SetSeq(c, 998)
	for range 3 {
		register(t, c, startWorker(t))
	}
	var ids []string
	for _, w := range c.Workers(context.Background()) {
		ids = append(ids, w.ID)
	}
	if want := []string{"worker-999", "worker-1000", "worker-1001"}; !slices.Equal(ids, want) {
		t.Fatalf("Workers lists %v, want %v", ids, want)
	}
}

// TestRegisterAndHealth covers the registry: URL validation, probe
// gating, duplicate handling and status reporting.
func TestRegisterAndHealth(t *testing.T) {
	t.Parallel()
	c := fleet.New(fleet.Config{})
	if _, err := c.Register(context.Background(), "not-a-url"); err == nil {
		t.Fatal("relative URL accepted")
	}
	if _, err := c.Register(context.Background(), "http://127.0.0.1:1"); err == nil {
		t.Fatal("unreachable worker registered")
	}
	if w, h := c.Counts(); w != 0 || h != 0 {
		t.Fatalf("counts after failed registrations = %d/%d", w, h)
	}

	url := startWorker(t)
	st, err := c.Register(context.Background(), url+"/")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Healthy || st.URL != url || !strings.HasPrefix(st.ID, "worker-") {
		t.Fatalf("status = %+v", st)
	}
	if _, err := c.Register(context.Background(), url); !errors.Is(err, fleet.ErrDuplicateWorker) {
		t.Fatalf("duplicate registration: %v", err)
	}
	ws := c.Workers(context.Background())
	if len(ws) != 1 || !ws[0].Healthy {
		t.Fatalf("workers = %+v", ws)
	}
	if w, h := c.Counts(); w != 1 || h != 1 {
		t.Fatalf("counts = %d/%d", w, h)
	}

	// Fleets do not nest: a coordinator-mode server is not a worker.
	coordMgr := service.NewManager(service.Config{Workers: 1, Fleet: fleet.New(fleet.Config{})})
	coordSrv := httptest.NewServer(service.NewHandler(coordMgr))
	t.Cleanup(func() {
		coordSrv.Close()
		coordMgr.Close()
	})
	if _, err := c.Register(context.Background(), coordSrv.URL); err == nil ||
		!strings.Contains(err.Error(), "coordinator") {
		t.Fatalf("registering a coordinator as a worker: %v, want nesting rejection", err)
	}
}

// noAggregateFront fronts a real worker and fails the test if anyone
// asks it for an aggregate: the cells are all a coordinator needs.
type noAggregateFront struct {
	t    *testing.T
	real http.Handler
}

func (f noAggregateFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/aggregate") {
		f.t.Errorf("coordinator requested %s", r.URL.Path)
		http.NotFound(w, r)
		return
	}
	f.real.ServeHTTP(w, r)
}

// TestRunGridMergesAcrossWorkers is the happy-path acceptance test: a
// two-worker fleet whose workers serve no aggregate route executes the
// grid, the merged stream is canonical and complete, and its fold is
// byte-identical to the aggregate of a single-process run of the same
// grid.
func TestRunGridMergesAcrossWorkers(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	c := fleet.New(fleet.Config{Metrics: reg})
	for range 2 {
		mgr := service.NewManager(service.Config{Workers: 1, SweepWorkers: 1, MaxConcurrentSweeps: 4})
		srv := httptest.NewServer(noAggregateFront{t: t, real: service.NewHandler(mgr)})
		t.Cleanup(func() {
			srv.Close()
			mgr.Close()
		})
		register(t, c, srv.URL)
	}

	var merged []expt.CellResult
	sum, err := c.RunGrid(context.Background(), testSpec, nil, func(cell expt.CellResult) {
		merged = append(merged, cell)
	})
	if err != nil {
		t.Fatal(err)
	}
	checkMergedCells(t, testSpec, merged)
	for i, cell := range merged {
		if cell.Err != nil || cell.Outcome.N != cell.Cell.N {
			t.Fatalf("cell %d: error=%v outcome=%+v", i, cell.Err, cell.Outcome)
		}
	}
	cells := testSpec.NumCells()
	if len(merged) != cells || sum.Executed != cells || errorCells(merged) != 0 {
		t.Fatalf("summary = %+v over %d merged cells, %d errors", sum, len(merged), errorCells(merged))
	}
	// One dispatch per planned shard, none of them re-dispatched.
	m := scrapeRegistry(t, reg)
	if shards := len(fleet.PlanShards(testSpec)); shards != 4 {
		t.Fatalf("plan has %d shards, want 4", shards)
	}
	if v, _ := m.Value("adnet_fleet_shards_dispatched_total", nil); v != 4 {
		t.Errorf("dispatch attempts = %v, want 4 (one per shard)", v)
	}
	if v, _ := m.Value("adnet_fleet_shards_redispatched_total", nil); v != 0 {
		t.Errorf("re-dispatches = %v, want 0", v)
	}

	if out, want := foldOf(t, merged), singleProcessAggregate(t, testSpec); !bytes.Equal(out, want) {
		t.Fatalf("fold of the merged cells diverged from single-process:\n%s\nvs\n%s", out, want)
	}
}

// flakyFront fronts a real worker handler: it lets one cell line
// through on the first stream, then cuts the stream and plays dead —
// every later request, health probes included, fails. It models a
// worker process dying mid-shard.
type flakyFront struct {
	real http.Handler

	mu    sync.Mutex
	lines int
	dead  bool
}

func (f *flakyFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	dead := f.dead
	f.mu.Unlock()
	if dead {
		http.Error(w, "worker died", http.StatusInternalServerError)
		return
	}
	if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/cells") {
		f.real.ServeHTTP(&cuttingWriter{ResponseWriter: w, front: f}, r)
		return
	}
	f.real.ServeHTTP(w, r)
}

// cuttingWriter forwards one line, then reports the worker dead and
// fails every subsequent write.
type cuttingWriter struct {
	http.ResponseWriter
	front *flakyFront
}

func (cw *cuttingWriter) Write(p []byte) (int, error) {
	cw.front.mu.Lock()
	if cw.front.lines >= 1 {
		cw.front.dead = true
		cw.front.mu.Unlock()
		return 0, errors.New("connection cut")
	}
	cw.front.lines++
	cw.front.mu.Unlock()
	n, err := cw.ResponseWriter.Write(p)
	if f, ok := cw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	return n, err
}

func (cw *cuttingWriter) Flush() {
	if f, ok := cw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestRunGridRedispatchesShardWhenWorkerDies kills one worker after it
// streamed a single cell: the coordinator must mark it unhealthy,
// re-dispatch the whole shard to the surviving worker, and still
// complete the full grid with a byte-identical aggregate — and its
// metrics must record the churn (unhealthy-worker gauge, re-dispatch
// counter).
func TestRunGridRedispatchesShardWhenWorkerDies(t *testing.T) {
	t.Parallel()
	mgr := service.NewManager(service.Config{Workers: 1, SweepWorkers: 1, MaxConcurrentSweeps: 4})
	front := &flakyFront{real: service.NewHandler(mgr)}
	flaky := httptest.NewServer(front)
	t.Cleanup(func() {
		flaky.Close()
		mgr.Close()
	})

	reg := obs.NewRegistry()
	c := fleet.New(fleet.Config{Metrics: reg})
	register(t, c, flaky.URL)
	register(t, c, startWorker(t))

	var merged []expt.CellResult
	_, err := c.RunGrid(context.Background(), testSpec, nil, func(cell expt.CellResult) {
		merged = append(merged, cell)
	})
	if err != nil {
		t.Fatal(err)
	}
	checkMergedCells(t, testSpec, merged)
	for i, cell := range merged {
		if cell.Err != nil {
			t.Fatalf("cell %d carries error %q", i, cell.Err)
		}
	}

	if out, want := foldOf(t, merged), singleProcessAggregate(t, testSpec); !bytes.Equal(out, want) {
		t.Fatalf("aggregate after re-dispatch diverged:\n%s\nvs\n%s", out, want)
	}

	// The dead worker is out of rotation and reported unhealthy.
	for _, w := range c.Workers(context.Background()) {
		if w.URL == flaky.URL && w.Healthy {
			t.Fatalf("dead worker still healthy: %+v", w)
		}
	}

	// The churn is visible on the coordinator's metrics: the healthy
	// gauge dropped to the surviving worker, the re-dispatch counter
	// moved, and the death was counted as exactly one transition into
	// unhealthy.
	m := scrapeRegistry(t, reg)
	if v, ok := m.Value("adnet_fleet_workers_healthy", nil); !ok || v != 1 {
		t.Errorf("healthy-worker gauge = %v/%v, want 1", v, ok)
	}
	if v, ok := m.Value("adnet_fleet_workers", nil); !ok || v != 2 {
		t.Errorf("worker gauge = %v/%v, want 2", v, ok)
	}
	redispatched, _ := m.Value("adnet_fleet_shards_redispatched_total", nil)
	if redispatched == 0 {
		t.Error("worker death did not re-dispatch any shard")
	}
	if v, _ := m.Value("adnet_fleet_worker_health_transitions_total",
		map[string]string{"to": "unhealthy"}); v != 1 {
		t.Errorf("unhealthy transitions = %v, want 1", v)
	}
	if v, _ := m.Value("adnet_fleet_shards_dispatched_total", nil); v < float64(len(fleet.PlanShards(testSpec)))+redispatched {
		t.Errorf("dispatch attempts = %v, want >= %d shards + %v re-dispatches",
			v, len(fleet.PlanShards(testSpec)), redispatched)
	}
	if v, _ := m.Value("adnet_fleet_shard_duration_seconds_count", map[string]string{"worker": "worker-002"}); v < 1 {
		t.Errorf("surviving worker's shard-latency observations = %v, want >= 1", v)
	}
}

// cutOnceFront fronts a real worker and cuts its first cell stream
// after one line — the connection aborts mid-body — while the worker
// itself stays up and answers everything else, later streams included.
// It models a network fault between a live worker and the coordinator.
type cutOnceFront struct {
	real http.Handler

	mu  sync.Mutex
	cut bool
}

func (f *cutOnceFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	cut := !f.cut && r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/cells")
	f.cut = f.cut || cut
	f.mu.Unlock()
	if !cut {
		f.real.ServeHTTP(w, r)
		return
	}
	f.real.ServeHTTP(&oneLineWriter{ResponseWriter: w}, r)
	panic(http.ErrAbortHandler)
}

// oneLineWriter forwards one write, then fails every later one.
type oneLineWriter struct {
	http.ResponseWriter
	wrote bool
}

func (o *oneLineWriter) Write(p []byte) (int, error) {
	if o.wrote {
		return 0, errors.New("connection cut")
	}
	o.wrote = true
	n, err := o.ResponseWriter.Write(p)
	if f, ok := o.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	return n, err
}

// TestRunGridRedispatchesBrokenStreamToLiveWorker: a stream that breaks
// while its worker stays alive costs the shard one dispatch attempt and
// nothing else — the worker passes its health probe, stays in rotation
// and re-runs the shard, no shard counts as re-dispatched, and the
// grid's fold is byte-identical to a single-process run.
func TestRunGridRedispatchesBrokenStreamToLiveWorker(t *testing.T) {
	t.Parallel()
	mgr := service.NewManager(service.Config{Workers: 1, SweepWorkers: 1, MaxConcurrentSweeps: 4})
	front := &cutOnceFront{real: service.NewHandler(mgr)}
	srv := httptest.NewServer(front)
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
	})

	reg := obs.NewRegistry()
	c := fleet.New(fleet.Config{Metrics: reg})
	register(t, c, srv.URL)

	var merged []expt.CellResult
	_, err := c.RunGrid(context.Background(), testSpec, nil, func(cell expt.CellResult) {
		merged = append(merged, cell)
	})
	if err != nil {
		t.Fatal(err)
	}
	front.mu.Lock()
	cut := front.cut
	front.mu.Unlock()
	if !cut {
		t.Fatal("no cell stream was cut")
	}
	checkMergedCells(t, testSpec, merged)
	if out, want := foldOf(t, merged), singleProcessAggregate(t, testSpec); !bytes.Equal(out, want) {
		t.Fatalf("aggregate after a broken stream diverged:\n%s\nvs\n%s", out, want)
	}
	if ws := c.Workers(context.Background()); len(ws) != 1 || !ws[0].Healthy {
		t.Fatalf("live worker lost its health: %+v", ws)
	}
	m := scrapeRegistry(t, reg)
	if v, _ := m.Value("adnet_fleet_worker_health_transitions_total",
		map[string]string{"to": "unhealthy"}); v != 0 {
		t.Errorf("unhealthy transitions = %v, want 0", v)
	}
	if v, _ := m.Value("adnet_fleet_shards_redispatched_total", nil); v != 0 {
		t.Errorf("re-dispatches = %v, want 0", v)
	}
	want := len(fleet.PlanShards(testSpec)) + 1
	if v, _ := m.Value("adnet_fleet_shards_dispatched_total", nil); v != float64(want) {
		t.Errorf("dispatch attempts = %v, want %d (one per shard, plus the broken one)", v, want)
	}
}

// garblingFront fronts a real worker and passes its first cell stream
// through garble before the coordinator reads it. Everything else, and
// every later stream, goes to the real worker untouched.
type garblingFront struct {
	real   http.Handler
	garble func(lines [][]byte) [][]byte

	mu      sync.Mutex
	garbled bool
}

func (g *garblingFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	first := !g.garbled && r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/cells")
	g.garbled = g.garbled || first
	g.mu.Unlock()
	if !first {
		g.real.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	g.real.ServeHTTP(rec, r)
	lines := bytes.SplitAfter(rec.Body.Bytes(), []byte("\n"))
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(bytes.Join(g.garble(lines), nil))
}

// rewriteLine returns a garble that rewrites what pattern matches in
// the stream's second cell line to repl.
func rewriteLine(pattern, repl string) func(lines [][]byte) [][]byte {
	re := regexp.MustCompile(pattern)
	return func(lines [][]byte) [][]byte {
		lines[1] = re.ReplaceAll(lines[1], []byte(repl))
		return lines
	}
}

// TestRunGridRedispatchesGarbledStream: a worker line that is not JSON,
// a cell line out of canonical order, a line at the right index for
// another cell of the grid, one that carries both or neither of an
// outcome and an error, or one past the shard's cells fails that
// dispatch — the coordinator merges
// none of the stream — and the shard is dispatched again; the live
// worker keeps its health and the grid folds to the single-process
// aggregate.
func TestRunGridRedispatchesGarbledStream(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name   string
		garble func(lines [][]byte) [][]byte
	}{
		{"malformed line", func(lines [][]byte) [][]byte {
			lines[1] = []byte(`{"index":1,"algorithm":` + "\n")
			return lines
		}},
		{"index out of order", func(lines [][]byte) [][]byte {
			lines[0], lines[1] = lines[1], lines[0]
			return lines
		}},
		{"another seed", rewriteLine(`"seed":\d+`, `"seed":99`)},
		{"another workload", rewriteLine(`"workload":"line"`, `"workload":"ring"`)},
		{"another max_rounds", rewriteLine(`"from_cache"`, `"max_rounds":5,"from_cache"`)},
		{"outcome and error", rewriteLine(`"outcome":`, `"error":"boom","outcome":`)},
		{"neither outcome nor error", rewriteLine(`,"outcome":\{.*\}\}`, `}`)},
		{"cell past the shard's end", func(lines [][]byte) [][]byte {
			// A shard is one row of testSpec's three seeds: lines 0–2
			// are its cells, line 3 its summary.
			extra := regexp.MustCompile(`"index":\d+`).ReplaceAll(lines[2], []byte(`"index":3`))
			return append(lines[:3:3], append([][]byte{extra}, lines[3:]...)...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			mgr := service.NewManager(service.Config{Workers: 1, SweepWorkers: 1, MaxConcurrentSweeps: 4})
			front := &garblingFront{real: service.NewHandler(mgr), garble: tc.garble}
			srv := httptest.NewServer(front)
			t.Cleanup(func() {
				srv.Close()
				mgr.Close()
			})
			reg := obs.NewRegistry()
			c := fleet.New(fleet.Config{Metrics: reg})
			register(t, c, srv.URL)

			var merged []expt.CellResult
			_, err := c.RunGrid(context.Background(), testSpec, nil, func(cell expt.CellResult) {
				merged = append(merged, cell)
			})
			if err != nil {
				t.Fatal(err)
			}
			checkMergedCells(t, testSpec, merged)
			if out, want := foldOf(t, merged), singleProcessAggregate(t, testSpec); !bytes.Equal(out, want) {
				t.Fatalf("aggregate after a garbled stream diverged:\n%s\nvs\n%s", out, want)
			}
			if ws := c.Workers(context.Background()); len(ws) != 1 || !ws[0].Healthy {
				t.Fatalf("workers %+v; want a healthy worker", ws)
			}
			m := scrapeRegistry(t, reg)
			if v, _ := m.Value("adnet_fleet_shards_redispatched_total", nil); v != 0 {
				t.Errorf("re-dispatches = %v, want 0", v)
			}
			want := len(fleet.PlanShards(testSpec)) + 1
			if v, _ := m.Value("adnet_fleet_shards_dispatched_total", nil); v != float64(want) {
				t.Errorf("dispatch attempts = %v, want %d (one per shard, plus the garbled one)", v, want)
			}
		})
	}
}

// busyFront fronts a real worker and rejects the first `rejects`
// sweep submissions with the service's fail-fast 503, as a worker
// saturated by its own client sweeps would.
type busyFront struct {
	real http.Handler

	mu      sync.Mutex
	rejects int
}

func (b *busyFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/v1/sweeps") {
		b.mu.Lock()
		reject := b.rejects > 0
		if reject {
			b.rejects--
		}
		b.mu.Unlock()
		if reject {
			http.Error(w, `{"error":"service: too many concurrent sweeps"}`, http.StatusServiceUnavailable)
			return
		}
	}
	b.real.ServeHTTP(w, r)
}

// sabotagingFront fronts a real worker and replaces the first cell
// stream with the one-line-per-cell canceled shape — error-marked
// cells trailed by a done:false summary — exactly what a worker-side
// time limit or a third-party DELETE produces. Everything else passes
// through to the real worker.
type sabotagingFront struct {
	real http.Handler

	mu        sync.Mutex
	sabotages int
	lastSpec  struct {
		Algorithms []string `json:"algorithms"`
		Workloads  []string `json:"workloads"`
		Sizes      []int    `json:"sizes"`
		Seeds      []int64  `json:"seeds"`
	}
}

func (s *sabotagingFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/v1/sweeps") {
		body, _ := io.ReadAll(r.Body)
		s.mu.Lock()
		json.Unmarshal(body, &s.lastSpec)
		s.mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		s.real.ServeHTTP(w, r)
		return
	}
	if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/cells") {
		s.mu.Lock()
		sabotage := s.sabotages > 0
		if sabotage {
			s.sabotages--
		}
		spec := s.lastSpec
		s.mu.Unlock()
		if sabotage {
			w.Header().Set("Content-Type", "application/x-ndjson")
			enc := json.NewEncoder(w)
			idx := 0
			for _, a := range spec.Algorithms {
				for _, wl := range spec.Workloads {
					for _, n := range spec.Sizes {
						for _, seed := range spec.Seeds {
							enc.Encode(map[string]any{
								"index": idx, "algorithm": a, "workload": wl, "n": n,
								"seed": seed, "from_cache": false,
								"error": "expt: cell skipped: sim: canceled",
							})
							idx++
						}
					}
				}
			}
			enc.Encode(map[string]any{
				"done": false, "cells": idx, "cache_hits": 0, "executed": 0, "errors": idx,
			})
			return
		}
	}
	s.real.ServeHTTP(w, r)
}

// TestRunGridRejectsIncompleteWorkerSweep: a worker sweep that ends
// canceled/failed streams error-marked cells and a done:false summary;
// the coordinator must treat that as a failed dispatch and re-run the
// shard — never merge the error cells as results.
func TestRunGridRejectsIncompleteWorkerSweep(t *testing.T) {
	t.Parallel()
	mgr := service.NewManager(service.Config{Workers: 1, SweepWorkers: 1, MaxConcurrentSweeps: 4})
	front := &sabotagingFront{real: service.NewHandler(mgr), sabotages: 1}
	srv := httptest.NewServer(front)
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
	})

	c := fleet.New(fleet.Config{})
	register(t, c, srv.URL)

	var merged []expt.CellResult
	_, err := c.RunGrid(context.Background(), testSpec, nil, func(cell expt.CellResult) {
		merged = append(merged, cell)
	})
	if err != nil {
		t.Fatal(err)
	}
	checkMergedCells(t, testSpec, merged)
	for i, cell := range merged {
		if cell.Err != nil || cell.Outcome.N != cell.Cell.N {
			t.Fatalf("cell %d from the sabotaged sweep leaked into the merge: %+v", i, cell)
		}
	}
	if out, want := foldOf(t, merged), singleProcessAggregate(t, testSpec); !bytes.Equal(out, want) {
		t.Fatalf("aggregate diverged after sabotaged dispatch:\n%s\nvs\n%s", out, want)
	}
}

// TestRunGridWaitsOutBusyWorker: a worker whose sweep gate rejects the
// first dispatches (503) is saturated, not broken — the coordinator
// must retry with backoff, keep the worker healthy, and complete the
// sweep without re-dispatch.
func TestRunGridWaitsOutBusyWorker(t *testing.T) {
	t.Parallel()
	mgr := service.NewManager(service.Config{Workers: 1, SweepWorkers: 1, MaxConcurrentSweeps: 4})
	front := &busyFront{real: service.NewHandler(mgr), rejects: 2}
	busy := httptest.NewServer(front)
	t.Cleanup(func() {
		busy.Close()
		mgr.Close()
	})

	reg := obs.NewRegistry()
	c := fleet.New(fleet.Config{Metrics: reg})
	register(t, c, busy.URL)

	var merged []expt.CellResult
	_, err := c.RunGrid(context.Background(), testSpec, nil, func(cell expt.CellResult) {
		merged = append(merged, cell)
	})
	if err != nil {
		t.Fatal(err)
	}
	checkMergedCells(t, testSpec, merged)
	if v, _ := scrapeRegistry(t, reg).Value("adnet_fleet_shards_redispatched_total", nil); v != 0 {
		t.Fatalf("busy worker counted as %v re-dispatches", v)
	}
	ws := c.Workers(context.Background())
	if len(ws) != 1 || !ws[0].Healthy {
		t.Fatalf("busy worker lost its health: %+v", ws)
	}
}

// TestRunGridNoWorkersKeepsWireContract: with nothing registered the
// sweep fails fast but still emits one skip-marked line per cell.
func TestRunGridNoWorkersKeepsWireContract(t *testing.T) {
	t.Parallel()
	c := fleet.New(fleet.Config{})
	var merged []expt.CellResult
	_, err := c.RunGrid(context.Background(), testSpec, nil, func(cell expt.CellResult) {
		merged = append(merged, cell)
	})
	if !errors.Is(err, fleet.ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
	checkMergedCells(t, testSpec, merged)
	for i, cell := range merged {
		if !strings.Contains(errText(cell), "skipped") {
			t.Fatalf("cell %d not skip-marked: %+v", i, cell)
		}
	}
	if n := errorCells(merged); n != testSpec.NumCells() {
		t.Fatalf("summary errors = %d, want %d", n, testSpec.NumCells())
	}
}

// TestRunGridCancelMidSweep cancels from the emit callback after the
// first merged cell: the sweep must unwind promptly, report
// cancellation, and still emit the full per-cell wire shape.
func TestRunGridCancelMidSweep(t *testing.T) {
	t.Parallel()
	c := fleet.New(fleet.Config{})
	register(t, c, startWorker(t))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var merged []expt.CellResult
	_, err := c.RunGrid(ctx, testSpec, nil, func(cell expt.CellResult) {
		merged = append(merged, cell)
		cancel()
	})
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("err = %v, want cancellation", err)
	}
	checkMergedCells(t, testSpec, merged)
	if merged[0].Err != nil || merged[0].Outcome.N != merged[0].Cell.N {
		t.Fatalf("first cell should have merged before the cancel: %+v", merged[0])
	}
	skipped := 0
	for _, cell := range merged {
		if strings.Contains(errText(cell), "skipped") {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("no cells skip-marked after cancel")
	}
}

// countingFront fronts a real worker and counts the requests it serves.
type countingFront struct {
	real http.Handler
	n    atomic.Int64
}

func (f *countingFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.n.Add(1)
	f.real.ServeHTTP(w, r)
}

// TestRunGridCancelBeforeStartProbesNoWorker: a grid whose context is
// done before dispatch contacts no worker — no /healthz probe, no
// shard — and ends canceled rather than short of workers. A shard the
// lookup answers in full still merges from its answers; a shard it
// answers in part is not merged, and every cell of it is one skip line
// like the rest.
func TestRunGridCancelBeforeStartProbesNoWorker(t *testing.T) {
	t.Parallel()
	mgr := service.NewManager(service.Config{Workers: 1, SweepWorkers: 1, MaxConcurrentSweeps: 4})
	front := &countingFront{real: service.NewHandler(mgr)}
	srv := httptest.NewServer(front)
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
	})
	c := fleet.New(fleet.Config{})
	register(t, c, srv.URL)

	// A first, uncanceled run yields the outcomes the lookup answers
	// with: all of shard 0, and the first cell of shard 1.
	var first []expt.CellResult
	if _, err := c.RunGrid(context.Background(), testSpec, nil, func(cell expt.CellResult) {
		first = append(first, cell)
	}); err != nil {
		t.Fatal(err)
	}
	answered := fleet.PlanShards(testSpec)[0].NumCells()
	lookup := func(i int, _ expt.Cell) (expt.Outcome, bool) {
		if i <= answered {
			return first[i].Outcome, true
		}
		return expt.Outcome{}, false
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := front.n.Load()
	var merged []expt.CellResult
	sum, err := c.RunGrid(ctx, testSpec, lookup, func(cell expt.CellResult) {
		merged = append(merged, cell)
	})
	if !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want sim.ErrCanceled", err)
	}
	if n := front.n.Load() - before; n != 0 {
		t.Fatalf("canceled grid made %d requests to its worker, want 0", n)
	}
	checkMergedCells(t, testSpec, merged)
	for i, cell := range merged {
		if i < answered {
			if cell.Err != nil || !cell.FromCache || cell.Outcome != first[i].Outcome {
				t.Fatalf("answered cell %d not merged from the lookup: %+v", i, cell)
			}
			continue
		}
		if !strings.HasPrefix(errText(cell), "fleet: cell skipped: ") {
			t.Fatalf("cell %d not skip-marked: %+v", i, cell)
		}
	}
	if sum.Replayed != answered {
		t.Fatalf("summary replayed = %d, want %d", sum.Replayed, answered)
	}
	if want := testSpec.NumCells() - answered; errorCells(merged) != want {
		t.Fatalf("summary errors = %d, want %d", errorCells(merged), want)
	}
}
