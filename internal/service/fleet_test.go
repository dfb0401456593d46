package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"adnet/internal/dynamics"
	"adnet/internal/expt"
	"adnet/internal/fleet"
	"adnet/internal/journal"
)

// newCoordinator builds a coordinator-mode test server backed by
// workerCount real worker servers (each a full manager + handler).
func newCoordinator(t *testing.T, workerCount int) (*httptest.Server, *Manager) {
	t.Helper()
	coord := fleet.New(fleet.Config{})
	for i := 0; i < workerCount; i++ {
		worker, _ := newTestServer(t, Config{Workers: 1, SweepWorkers: 1, MaxConcurrentSweeps: 4})
		if _, err := coord.Register(t.Context(), worker.URL); err != nil {
			t.Fatal(err)
		}
	}
	return newTestServer(t, Config{Workers: 1, Fleet: coord})
}

// TestCoordinatorSweepMatchesSingleProcessByteForByte is the
// acceptance criterion end to end through the service layer: a
// coordinator with two workers serves a merged cell stream in
// canonical order and an aggregate byte-identical to the same grid
// run on one ordinary (single-process) server — while executing no
// simulation of its own.
func TestCoordinatorSweepMatchesSingleProcessByteForByte(t *testing.T) {
	t.Parallel()
	spec := SweepSpec{
		Algorithms: []string{"graph-to-star", "flood"},
		Workloads:  []string{"line"},
		Sizes:      []int{16, 24},
		Seeds:      []int64{1, 2, 3},
	}

	coordSrv, coordMgr := newCoordinator(t, 2)
	job, code := postSweepJob(t, coordSrv, spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST sweep to coordinator = %d", code)
	}
	awaitSweepState(t, coordSrv, job.ID, StateDone)

	cells, sum := readCells(t, coordSrv, job.ID)
	grid := spec.Cells()
	if len(cells) != len(grid) {
		t.Fatalf("merged stream has %d cells, grid %d", len(cells), len(grid))
	}
	for i, c := range cells {
		want := grid[i]
		if c.Index != i || c.Algorithm != want.Algorithm || c.N != want.N || c.Seed != want.Seed {
			t.Fatalf("cell %d = %+v, want %+v", i, c, want)
		}
		if c.Error != "" || c.Outcome == nil {
			t.Fatalf("cell %d failed: %q", i, c.Error)
		}
	}
	if sum == nil || !sum.Done || sum.Cells != len(grid) || sum.Errors != 0 || sum.Executed != len(grid) {
		t.Fatalf("summary = %+v", sum)
	}

	// Reference: the identical grid on a plain single-process server.
	singleSrv, _ := newTestServer(t, Config{Workers: 1, SweepWorkers: 2})
	ref, _ := postSweepJob(t, singleSrv, spec)
	awaitSweepState(t, singleSrv, ref.ID, StateDone)

	distAgg, code := getAggregate(t, coordSrv, job.ID)
	if code != http.StatusOK {
		t.Fatalf("coordinator aggregate = %d", code)
	}
	singleAgg, code := getAggregate(t, singleSrv, ref.ID)
	if code != http.StatusOK {
		t.Fatalf("single-process aggregate = %d", code)
	}
	distBytes, _ := json.Marshal(distAgg.Groups)
	singleBytes, _ := json.Marshal(singleAgg.Groups)
	if !bytes.Equal(distBytes, singleBytes) {
		t.Fatalf("coordinator aggregate diverged from single-process:\n%s\nvs\n%s", distBytes, singleBytes)
	}

	// The coordinator distributed everything: no local simulations.
	if n := coordMgr.RunsExecuted(); n != 0 {
		t.Fatalf("coordinator executed %d runs locally, want 0", n)
	}
}

// TestCoordinatorJournalTakeover is the in-process coordinator
// failover test: a journaling coordinator dies mid-grid with at least
// one whole (algorithm, workload, n) group journaled as cell records;
// a brand-new coordinator (fresh registry, same workers, same data
// dir) recovers, merges the journaled groups without dispatching them,
// completes only the missing ones, and folds an aggregate
// byte-identical to an uninterrupted run.
func TestCoordinatorJournalTakeover(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	// Two rows → two shards. The workers hold the n=64 shard's POST
	// until released, so the n=32 shard completes, merges and is
	// journaled before the "crash" however the dispatchers are
	// scheduled: the interruption lands between groups by construction.
	spec := SweepSpec{
		Algorithms: []string{"graph-to-star"},
		Workloads:  []string{"line"},
		Sizes:      []int{32, 64},
		Seeds:      []int64{1, 2, 3, 4},
	}
	total := spec.NumCells()
	path := sweepJournalPath(dir, spec.Key())

	release := make(chan struct{})
	var workerURLs []string
	for i := 0; i < 2; i++ {
		wm := NewManager(Config{Workers: 1, SweepWorkers: 1, MaxConcurrentSweeps: 4})
		real := NewHandler(wm)
		w := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/sweeps" {
				body, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				if bytes.Contains(body, []byte(`"sizes":[64]`)) {
					select {
					case <-release:
					case <-r.Context().Done():
						return
					}
				}
			}
			real.ServeHTTP(rw, r)
		}))
		t.Cleanup(func() {
			w.Close()
			wm.Close()
		})
		workerURLs = append(workerURLs, w.URL)
	}
	newCoordMgr := func() *Manager {
		coord := fleet.New(fleet.Config{})
		for _, u := range workerURLs {
			if _, err := coord.Register(t.Context(), u); err != nil {
				t.Fatal(err)
			}
		}
		return NewManager(Config{Workers: 1, Fleet: coord, DataDir: dir})
	}
	// groupCells counts the journaled cells of whole groups: only those
	// merge on resume without a dispatch.
	groupCells := func() int {
		recs, _, err := journal.ReadAll(path)
		if err != nil {
			return 0
		}
		st, err := parseJournal(path, recs, func(string, []byte) {})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, sh := range fleet.PlanShards(spec) {
			whole := true
			for i := sh.Offset; i < sh.Offset+sh.NumCells(); i++ {
				whole = whole && i < len(st.cells) && st.cells[i] != nil
			}
			if whole {
				n += sh.NumCells()
			}
		}
		return n
	}

	m1 := newCoordMgr()
	if _, err := m1.SubmitSweep(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for groupCells() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no group was ever journaled")
		}
		time.Sleep(2 * time.Millisecond)
	}
	m1.Close() // the "crash": no terminal record is written
	close(release)

	cellsDone := groupCells()
	if cellsDone == 0 || cellsDone >= total {
		t.Fatalf("journal holds %d cells of whole groups of %d; need a mid-grid interruption", cellsDone, total)
	}

	m2 := newCoordMgr()
	defer m2.Close()
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	var resumed *SweepJob
	deadline = time.Now().Add(60 * time.Second)
	for resumed == nil {
		if time.Now().After(deadline) {
			t.Fatal("takeover coordinator never resubmitted the sweep")
		}
		for _, st := range m2.Sweeps() {
			resumed, _ = m2.GetSweep(st.ID)
		}
		time.Sleep(2 * time.Millisecond)
	}
	deadline = time.Now().Add(120 * time.Second)
	for resumed.State() != StateDone {
		if s := resumed.State(); s == StateFailed || s == StateCanceled {
			t.Fatalf("resumed sweep ended %s: %s", s, resumed.Status().Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed sweep stuck in %s", resumed.State())
		}
		time.Sleep(2 * time.Millisecond)
	}

	st := resumed.Status()
	if !st.Resumed || st.Summary == nil {
		t.Fatalf("takeover status = %+v", st)
	}
	if st.Summary.Replayed != cellsDone {
		t.Errorf("replayed = %d, want the %d journaled cells of whole groups", st.Summary.Replayed, cellsDone)
	}
	if st.Summary.Errors != 0 {
		t.Errorf("takeover sweep reported %d errors", st.Summary.Errors)
	}
	if n := m2.RunsExecuted(); n != 0 {
		t.Errorf("takeover coordinator ran %d local simulations", n)
	}

	groups, err := resumed.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(groups)
	ref, err := expt.AggregateSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(ref)
	if !bytes.Equal(got, want) {
		t.Fatalf("takeover aggregate diverged from uninterrupted reference:\n%s\nvs\n%s", got, want)
	}
}

// TestCoordinatorResumesShardRecords feeds a takeover coordinator a
// journal an older coordinator left: a header and one shard record,
// which coordinators wrote per completed shard before they wrote cell
// records. Replay folds the record's successful cells into the
// done-set. A record whose cells all succeeded merges its shard without
// a dispatch; a record with an error cell — as the golden literal, and
// as the record of binaries that stored the shard's aggregate next to
// its cells — sends its shard to a worker whole. Either way the journal
// ends up naming every run key of the grid once, the record's included.
func TestCoordinatorResumesShardRecords(t *testing.T) {
	t.Parallel()
	spec := SweepSpec{ // the grid the golden shard records belong to
		Algorithms: []string{"flood", "graph-to-star"},
		Workloads:  []string{"line"},
		Sizes:      []int{32, 64},
		Seeds:      []int64{1, 2},
	}
	header, err := json.Marshal(sweepHeader{Key: spec.Key(), Spec: spec, Cells: spec.NumCells()})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := expt.AggregateSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The golden record with its error cell finished: the outcome it
	// copies is not what the worker computes for the seed, so the
	// aggregate shows whether the record was replayed.
	okLine2 := strings.NewReplacer(`"index":0`, `"index":1`, `"seed":1`, `"seed":2`).Replace(okLine)
	allOK := strings.Replace(shardRecord, errLine, okLine2, 1)
	var recorded struct {
		Cells []SweepCell `json:"cells"`
	}
	if err := json.Unmarshal([]byte(allOK), &recorded); err != nil {
		t.Fatal(err)
	}
	rerun, _ := json.Marshal(ref)
	results := make([]expt.CellResult, len(recorded.Cells))
	for i, c := range recorded.Cells {
		results[i] = expt.WireCellResult(c.Index, spec.Cells()[c.Index], c.FromCache, c.Outcome, c.Error)
	}
	replayed, _ := json.Marshal(append(expt.Aggregate(results), ref[1:]...))

	for _, tc := range []struct {
		name, record                 string
		recorded, replayed, executed int // recorded: the record's successful cells
		aggregate                    []byte
	}{
		{"successful cells", allOK, 2, 2, spec.NumCells() - 2, replayed},
		// The golden records, each with an error cell.
		{"cells", shardRecord, 1, 0, spec.NumCells(), rerun},
		{"cells and groups", shardRecordWithGroups, 1, 0, spec.NumCells(), rerun},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			if err := os.MkdirAll(journalDir(dir), 0o755); err != nil {
				t.Fatal(err)
			}
			path := sweepJournalPath(dir, spec.Key())
			writeJournal(t, path, journal.Record{Kind: recHeader, Data: header}, journal.Record{Kind: recShard, Data: []byte(tc.record)})

			worker, _ := newTestServer(t, Config{Workers: 1, SweepWorkers: 1})
			coord := fleet.New(fleet.Config{})
			if _, err := coord.Register(t.Context(), worker.URL); err != nil {
				t.Fatal(err)
			}
			m := NewManager(Config{Workers: 1, Fleet: coord, DataDir: dir})
			defer m.Close()
			if err := m.Recover(); err != nil {
				t.Fatal(err)
			}
			var resumed *SweepJob
			waitFor(t, func() bool {
				for _, st := range m.Sweeps() {
					resumed, _ = m.GetSweep(st.ID)
				}
				return resumed != nil && resumed.State().terminal()
			}, "the journaled sweep never resumed to a terminal state")

			st := resumed.Status()
			if st.State != StateDone || !st.Resumed || st.Summary.Replayed != tc.replayed ||
				st.Summary.Executed != tc.executed || st.Summary.Errors != 0 {
				t.Fatalf("resumed status = %+v, summary %+v; want %d replayed, %d executed",
					st, st.Summary, tc.replayed, tc.executed)
			}
			groups, err := resumed.Aggregate()
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := json.Marshal(groups); !bytes.Equal(got, tc.aggregate) {
				t.Fatalf("resumed aggregate is\n%s\nwant\n%s", got, tc.aggregate)
			}
			// The record's successful cells are in the done-set, so no
			// cell record names them; every other cell has one.
			keys := journaledRunKeys(t, path)
			for i, c := range spec.Cells() {
				want := 1
				if i < tc.recorded {
					want = 0
				}
				if n := keys[c.Key()]; n != want {
					t.Errorf("cell records name run key %s %d times, want %d", c.Key(), n, want)
				}
			}
		})
	}
}

// TestRecoverCachesShardCellsUnderGridKeys: a coordinator journals the
// cells its workers streamed, whose wire form carries no dynamics
// block. Each cell record must be keyed by the grid's own cell — the
// spec, dynamics included — or recovery files the outcomes of a
// perturbed sweep in the result cache under the clean run key and
// poisons it.
func TestRecoverCachesShardCellsUnderGridKeys(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	dyn := &dynamics.Spec{Class: dynamics.ClassEdgeChurn}
	spec := SweepSpec{
		Algorithms: []string{"flood"},
		Workloads:  []string{"line"},
		Sizes:      []int{32},
		Seeds:      []int64{1, 2},
		Dynamics:   dyn,
	}

	worker, _ := newTestServer(t, Config{Workers: 1, SweepWorkers: 1})
	coord := fleet.New(fleet.Config{})
	if _, err := coord.Register(t.Context(), worker.URL); err != nil {
		t.Fatal(err)
	}
	m1 := NewManager(Config{Workers: 1, Fleet: coord, DataDir: dir})
	j, err := m1.SubmitSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for j.State() != StateDone {
		if j.State().terminal() || time.Now().After(deadline) {
			t.Fatalf("perturbed sweep in state %s: %s", j.State(), j.Status().Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	m1.Close()

	m2 := NewManager(Config{Workers: 1, DataDir: dir})
	defer m2.Close()
	if err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	clean := RunSpec{Algorithm: "flood", Workload: "line", N: 32, Seed: 1}
	job, cached, err := m2.Submit(clean)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatalf("clean run answered from the cache after recovering a perturbed sweep: %+v", job.Status().Outcome)
	}
	waitState(t, job, StateDone)
	if out := job.Status().Outcome; out == nil || out.EnvActivations != 0 || out.EnvDeactivations != 0 {
		t.Fatalf("clean run reports environment edits: %+v", out)
	}
	// The journaled outcome sits under the perturbed key, where a sweep
	// cell finds it (a recovered entry has no streams to answer a run).
	perturbed := clean
	perturbed.Dynamics = dyn
	sj, err := m2.SubmitSweep(context.Background(), perturbed.Grid())
	if err != nil {
		t.Fatal(err)
	}
	for !sj.State().terminal() {
		if time.Now().After(deadline) {
			t.Fatal("one-cell perturbed sweep never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if sum := sj.Status().Summary; sum.CacheHits != 1 || sum.Executed != 0 {
		t.Fatalf("perturbed cell after recovery: %+v, want the journaled outcome from the cache", sum)
	}
}

// TestFleetWorkerEndpoints covers the registry API: mounted only in
// coordinator mode, validates URLs, probes health, reports workers.
func TestFleetWorkerEndpoints(t *testing.T) {
	t.Parallel()

	// Without a fleet, the routes do not exist.
	plain, _ := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(plain.URL + "/v1/fleet/workers")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/fleet/workers on a plain server = %d, want 404", resp.StatusCode)
	}

	coordSrv, _ := newCoordinator(t, 1)
	worker, _ := newTestServer(t, Config{Workers: 1})

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(coordSrv.URL+"/v1/fleet/workers", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"url":"` + worker.URL + `"}`); code != http.StatusCreated {
		t.Fatalf("register = %d, want 201", code)
	}
	if code := post(`{"url":"` + worker.URL + `"}`); code != http.StatusOK {
		t.Fatalf("duplicate register = %d, want 200", code)
	}
	if code := post(`{"url":"not-absolute"}`); code != http.StatusBadRequest {
		t.Fatalf("bad URL = %d, want 400", code)
	}
	if code := post(`{"url":"http://127.0.0.1:1"}`); code != http.StatusBadGateway {
		t.Fatalf("unreachable worker = %d, want 502", code)
	}

	var workers []fleet.WorkerStatus
	resp, err = http.Get(coordSrv.URL + "/v1/fleet/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&workers); err != nil {
		t.Fatal(err)
	}
	if len(workers) != 2 {
		t.Fatalf("registry has %d workers, want 2", len(workers))
	}
	for _, w := range workers {
		if !w.Healthy {
			t.Fatalf("worker %+v unhealthy", w)
		}
	}

	// healthz reports the fleet counters in coordinator mode.
	var health struct {
		Stats Stats `json:"stats"`
	}
	resp, err = http.Get(coordSrv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if !health.Stats.Coordinator || health.Stats.FleetWorkers != 2 || health.Stats.FleetHealthy != 2 {
		t.Fatalf("healthz fleet stats = %+v", health.Stats)
	}
}

// TestCoordinatorSweepFailsCleanlyWithoutWorkers: an empty registry
// must fail the sweep job — with the full skip-marked cell stream and
// a summary — rather than hang or run locally.
func TestCoordinatorSweepFailsCleanlyWithoutWorkers(t *testing.T) {
	t.Parallel()
	coordSrv, coordMgr := newTestServer(t, Config{Workers: 1, Fleet: fleet.New(fleet.Config{})})
	spec := SweepSpec{
		Algorithms: []string{"flood"},
		Workloads:  []string{"line"},
		Sizes:      []int{8},
		Seeds:      []int64{1, 2},
	}
	job, _ := postSweepJob(t, coordSrv, spec)
	st := awaitSweepState(t, coordSrv, job.ID, StateFailed)
	if !strings.Contains(st.Error, "no healthy workers") {
		t.Fatalf("error = %q", st.Error)
	}
	cells, sum := readCells(t, coordSrv, job.ID)
	if len(cells) != 2 || sum == nil || sum.Errors != 2 {
		t.Fatalf("cells = %d, summary = %+v", len(cells), sum)
	}
	for _, c := range cells {
		if !strings.Contains(c.Error, "skipped") {
			t.Fatalf("cell not skip-marked: %+v", c)
		}
	}
	if n := coordMgr.RunsExecuted(); n != 0 {
		t.Fatalf("coordinator ran %d local simulations", n)
	}
}

// TestCoordinatorCellsRanNowhereLocally: a coordinator records its
// cells through the same emit as a local sweep, but none of them ran
// there. Over a fresh sweep and a resubmission that replays its
// journal, it executes no run, observes no cell duration and no grid
// utilization, and counts as journal replays exactly the cells its
// summaries call replayed; the fresh sweep files nothing in its outcome
// index (reopening a journal files its cells, as on any server).
func TestCoordinatorCellsRanNowhereLocally(t *testing.T) {
	t.Parallel()
	coord := fleet.New(fleet.Config{})
	for range 2 {
		worker, _ := newTestServer(t, Config{Workers: 1, SweepWorkers: 1})
		if _, err := coord.Register(t.Context(), worker.URL); err != nil {
			t.Fatal(err)
		}
	}
	srv, m := newTestServer(t, Config{Workers: 1, Fleet: coord, DataDir: t.TempDir()})
	spec := SweepSpec{Algorithms: []string{"graph-to-star", "flood"}, Workloads: []string{"line"}, Sizes: []int{8, 12}, Seeds: []int64{1, 2}}
	var replayed []int
	for k := range 2 {
		job, _ := postSweepJob(t, srv, spec)
		replayed = append(replayed, awaitSweepState(t, srv, job.ID, StateDone).Summary.Replayed)
		if size, _, _ := m.cacheStats(); k == 0 && size != 0 {
			t.Errorf("coordinator indexed %d outcomes of a fresh sweep, want none", size)
		}
	}
	if replayed[0] != 0 || replayed[1] != spec.NumCells() {
		t.Fatalf("replayed = %v, want 0 and then every one of %d cells", replayed, spec.NumCells())
	}
	mx := scrape(t, srv)
	for name, want := range map[string]float64{
		"adnet_sweep_cell_duration_seconds_count":  0,
		"adnet_sweep_grid_utilization_ratio_count": 0,
		"adnet_journal_replayed_cells_total":       float64(spec.NumCells()),
	} {
		if v, _ := mx.Value(name, nil); v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
	if n := m.RunsExecuted(); n != 0 {
		t.Errorf("coordinator ran %d runs, want none", n)
	}
}
