package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"adnet/internal/dynamics"
	"adnet/internal/expt"
	"adnet/internal/sim"
)

// postSweepJob submits a sweep spec and returns the parsed job status.
func postSweepJob(t *testing.T, srv *httptest.Server, spec SweepSpec) (SweepStatus, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return SweepStatus{}, resp.StatusCode
	}
	var sub sweepSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub.Sweep, resp.StatusCode
}

func getSweepStatus(t *testing.T, srv *httptest.Server, id string) SweepStatus {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/sweeps/%s = %d", id, resp.StatusCode)
	}
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// awaitSweepState polls until the sweep reaches one of the wanted
// terminal states.
func awaitSweepState(t *testing.T, srv *httptest.Server, id string, want ...JobState) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getSweepStatus(t, srv, id)
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			t.Fatalf("sweep %s ended %s (want %v): %s", id, st.State, want, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("sweep %s never reached %v", id, want)
	return SweepStatus{}
}

// readCells consumes the cell NDJSON stream to EOF and splits it into
// per-cell lines and the optional trailing summary.
func readCells(t *testing.T, srv *httptest.Server, id string) ([]SweepCell, *SweepSummary) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + id + "/cells")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET cells = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var cells []SweepCell
	var summary *SweepSummary
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if summary != nil {
			t.Fatalf("line after summary: %q", line)
		}
		if strings.Contains(line, `"done"`) {
			summary = new(SweepSummary)
			if err := json.Unmarshal([]byte(line), summary); err != nil {
				t.Fatalf("bad summary %q: %v", line, err)
			}
			continue
		}
		var cell SweepCell
		if err := json.Unmarshal([]byte(line), &cell); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		cells = append(cells, cell)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return cells, summary
}

func getAggregate(t *testing.T, srv *httptest.Server, id string) (sweepAggregateResponse, int) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + id + "/aggregate")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var agg sweepAggregateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&agg); err != nil {
			t.Fatal(err)
		}
	}
	return agg, resp.StatusCode
}

func sweepSpec() SweepSpec {
	return SweepSpec{
		Algorithms: []string{"graph-to-star", "flood"},
		Workloads:  []string{"line"},
		Sizes:      []int{16, 24},
		Seeds:      []int64{1, 2},
	}
}

// slowSweepSpec has one slowSpec-sized cell per seed: a grid one sweep
// worker takes tens of milliseconds a cell over.
func slowSweepSpec(seeds ...int64) SweepSpec {
	return SweepSpec{
		Algorithms: []string{"graph-to-star"},
		Workloads:  []string{"line"},
		Sizes:      []int{4096},
		Seeds:      seeds,
	}
}

// longSweepSpec has one longSpec-sized cell per seed: a sweep that
// cannot finish before a test that catches it in flight acts on it.
func longSweepSpec(seeds ...int64) SweepSpec {
	spec := longSpec(0)
	return SweepSpec{
		Algorithms: []string{spec.Algorithm},
		Workloads:  []string{spec.Workload},
		Sizes:      []int{spec.N},
		Seeds:      seeds,
	}
}

func TestSweepJobLifecycleStreamsEveryCellInOrder(t *testing.T) {
	t.Parallel()
	srv, m := newTestServer(t, Config{Workers: 1, SweepWorkers: 3})

	spec := sweepSpec()
	sub, code := postSweepJob(t, srv, spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d, want 202", code)
	}
	if sub.ID == "" || !strings.HasPrefix(sub.ID, "sweep-") {
		t.Fatalf("sweep ID = %q", sub.ID)
	}
	wantCells := len(spec.Algorithms) * len(spec.Workloads) * len(spec.Sizes) * len(spec.Seeds)
	if sub.Cells != wantCells {
		t.Fatalf("submit status cells = %d, want %d", sub.Cells, wantCells)
	}

	st := awaitSweepState(t, srv, sub.ID, StateDone)
	if st.Summary == nil || !st.Summary.Done || st.Summary.Cells != wantCells ||
		st.Summary.Executed != wantCells || st.Summary.Errors != 0 || st.Summary.CacheHits != 0 {
		t.Fatalf("summary = %+v", st.Summary)
	}
	if st.CellsDone != wantCells {
		t.Fatalf("cells_done = %d, want %d", st.CellsDone, wantCells)
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		t.Error("finished sweep must carry timestamps")
	}

	// A late subscriber replays the full cell history in canonical
	// order, with the summary trailing.
	cells, summary := readCells(t, srv, sub.ID)
	if len(cells) != wantCells {
		t.Fatalf("streamed %d cells, want %d", len(cells), wantCells)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d: stream not in canonical order", i, c.Index)
		}
		if c.Error != "" || c.Outcome == nil {
			t.Fatalf("cell %d: %+v", i, c)
		}
		if c.FromCache {
			t.Fatalf("cell %d from cache on a cold manager", i)
		}
		if !c.Outcome.LeaderOK {
			t.Fatalf("cell %d outcome: %+v", i, c.Outcome)
		}
		if c.Algorithm != "centralized-euler" && c.Outcome.TotalMessages == 0 {
			t.Fatalf("cell %d reports no messages: %+v", i, c.Outcome)
		}
	}
	if cells[0].Algorithm != "graph-to-star" || cells[wantCells-1].Algorithm != "flood" {
		t.Fatalf("order wrong: first %s, last %s", cells[0].Algorithm, cells[wantCells-1].Algorithm)
	}
	if summary == nil || *summary != *st.Summary {
		t.Fatalf("streamed summary %+v, status summary %+v", summary, st.Summary)
	}
	if got := m.RunsExecuted(); got != int64(wantCells) {
		t.Fatalf("RunsExecuted = %d, want %d", got, wantCells)
	}

	// The job list knows the sweep.
	var list []SweepStatus
	mustGetJSON(t, srv, "/v1/sweeps", &list)
	if len(list) != 1 || list[0].ID != sub.ID {
		t.Fatalf("sweep list = %+v", list)
	}
}

func TestSweepJobPerCellCacheHits(t *testing.T) {
	t.Parallel()
	srv, m := newTestServer(t, Config{Workers: 2, SweepWorkers: 2})
	spec := sweepSpec()

	// Seed the cache with ONE cell via the individual-run path: the
	// canonical run key (Cell.Key) makes the sweep reuse it.
	sub, code := postRun(t, srv, RunSpec{Algorithm: "flood", Workload: "line", N: 16, Seed: 1})
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/runs = %d", code)
	}
	awaitDone(t, srv, sub.Job.ID)
	if m.RunsExecuted() != 1 {
		t.Fatalf("RunsExecuted = %d after priming run", m.RunsExecuted())
	}

	job, _ := postSweepJob(t, srv, spec)
	st := awaitSweepState(t, srv, job.ID, StateDone)
	cells, _ := readCells(t, srv, job.ID)
	wantCells := 8
	hits := 0
	for _, c := range cells {
		if c.FromCache {
			hits++
			if c.Algorithm != "flood" || c.N != 16 || c.Seed != 1 {
				t.Fatalf("unexpected cache hit: %+v", c)
			}
		}
	}
	if hits != 1 || st.Summary.CacheHits != 1 {
		t.Fatalf("cache hits = %d (summary %d), want 1", hits, st.Summary.CacheHits)
	}
	if st.Summary.Executed != wantCells-1 {
		t.Fatalf("executed = %d, want %d", st.Summary.Executed, wantCells-1)
	}
	if got := m.RunsExecuted(); got != int64(wantCells) { // 1 priming + 7 fresh
		t.Fatalf("RunsExecuted = %d, want %d", got, wantCells)
	}

	// A repeated identical sweep re-simulates nothing.
	job2, _ := postSweepJob(t, srv, spec)
	st2 := awaitSweepState(t, srv, job2.ID, StateDone)
	if st2.Summary.CacheHits != wantCells || st2.Summary.Executed != 0 {
		t.Fatalf("repeat sweep summary = %+v, want all cache hits", st2.Summary)
	}
	if got := m.RunsExecuted(); got != int64(wantCells) {
		t.Fatalf("RunsExecuted grew to %d on a fully cached sweep", got)
	}

	// And the reverse direction: a sweep cell leaves an outcome but no
	// streams, so a run submitted after the sweep executes — to the same
	// outcome, with all of its streams — and only then serves replays.
	cell := cells[3] // graph-to-star/line/24/seed 2
	checkRunAfterOutcomeOnlyEntry(t, srv,
		RunSpec{Algorithm: cell.Algorithm, Workload: cell.Workload, N: cell.N, Seed: cell.Seed}, *cell.Outcome)
	if got := m.RunsExecuted(); got != int64(wantCells)+1 {
		t.Fatalf("RunsExecuted = %d, want %d (the post-sweep run, once)", got, wantCells+1)
	}
}

// checkRunAfterOutcomeOnlyEntry pins what a run submission gets when
// the result cache knows spec's outcome but holds no streams for it (a
// sweep cell or a journal recovery put it there): the run executes, to
// the same outcome, and streams every round and every topology frame;
// a second submission is a cache hit whose streams are the first's,
// byte for byte, at no further encode.
func checkRunAfterOutcomeOnlyEntry(t *testing.T, srv *httptest.Server, spec RunSpec, want expt.Outcome) {
	t.Helper()
	paths := []string{"/rounds", "/topology", "/topology?format=packed"}
	drain := func(id string) [3][]string {
		t.Helper()
		var out [3][]string
		for i, path := range paths {
			out[i], _ = streamLines(t, srv.URL+"/v1/runs/"+id+path)
		}
		return out
	}

	sub, code := postRun(t, srv, spec)
	if code != http.StatusAccepted || sub.Cached {
		t.Fatalf("run over an outcome-only entry: code=%d cached=%v, want it to execute", code, sub.Cached)
	}
	st := awaitDone(t, srv, sub.Job.ID)
	if st.Outcome == nil || *st.Outcome != want {
		t.Fatalf("run outcome %+v, want the stored %+v", st.Outcome, want)
	}
	first := drain(sub.Job.ID)
	for i, wantFrames := range []int{want.Rounds, want.Rounds + 1, want.Rounds + 1} {
		if len(first[i]) != wantFrames {
			t.Errorf("%s streamed %d frames, want %d", paths[i], len(first[i]), wantFrames)
		}
	}
	if st.Rounds != want.Rounds {
		t.Errorf("rounds_streamed = %d, want %d", st.Rounds, want.Rounds)
	}

	encoded, _ := scrape(t, srv).Sum("adnet_stream_frames_encoded_total", nil)
	hit, code := postRun(t, srv, spec)
	if code != http.StatusOK || !hit.Cached {
		t.Fatalf("second run: code=%d cached=%v, want a cache hit", code, hit.Cached)
	}
	if hit.Job.Outcome == nil || *hit.Job.Outcome != want || hit.Job.Rounds != want.Rounds {
		t.Errorf("cache-hit status = %+v, want outcome %+v and %d rounds streamed", hit.Job, want, want.Rounds)
	}
	if replay := drain(hit.Job.ID); !reflect.DeepEqual(replay, first) {
		t.Error("cache-hit replay is not byte-equal to the streams of the run that executed")
	}
	if after, _ := scrape(t, srv).Sum("adnet_stream_frames_encoded_total", nil); after != encoded {
		t.Errorf("replaying a cache hit encoded %v frames, want 0", after-encoded)
	}
}

func TestSweepJobValidation(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 1, MaxSweepCells: 4, MaxN: 64})

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	bad := []string{
		`{not json`,
		`{"algorithms":["nope"],"workloads":["line"],"sizes":[8],"seeds":[1]}`,
		`{"algorithms":["flood"],"workloads":["nope"],"sizes":[8],"seeds":[1]}`,
		`{"algorithms":["flood"],"workloads":["line"],"sizes":[1],"seeds":[1]}`,
		`{"algorithms":["flood"],"workloads":["line"],"sizes":[128],"seeds":[1]}`,         // > MaxN
		`{"algorithms":["flood"],"workloads":["line"],"sizes":[8],"seeds":[]}`,            // empty grid
		`{"algorithms":["flood"],"workloads":["line"],"sizes":[8,16,24],"seeds":[1,2]}`,   // 6 > MaxSweepCells
		`{"algorithms":["flood"],"workloads":["line"],"sizes":[8],"seeds":[1],"bogus":1}`, // unknown field
		`{"algorithms":["flood"],"workloads":["line"],"sizes":[8],"seeds":[1],"max_rounds":-1}`,
	}
	for i, body := range bad {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("bad spec %d: code = %d, want 400", i, code)
		}
	}
	// The limit is inclusive: exactly MaxSweepCells cells pass.
	if code := post(`{"algorithms":["flood"],"workloads":["line"],"sizes":[8,16],"seeds":[1,2]}`); code != http.StatusAccepted {
		t.Errorf("4-cell sweep rejected with %d", code)
	}
}

func TestSweepCoalescesWithInFlightRun(t *testing.T) {
	t.Parallel()
	srv, m := newTestServer(t, Config{Workers: 1, SweepWorkers: 1})

	// Start a slow run, then sweep the same cell while it is still in
	// flight: the sweep must wait for the job instead of re-simulating.
	spec := slowSpec(61)
	sub, code := postRun(t, srv, spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/runs = %d", code)
	}
	job, code := postSweepJob(t, srv, SweepSpec{
		Algorithms: []string{spec.Algorithm},
		Workloads:  []string{spec.Workload},
		Sizes:      []int{spec.N},
		Seeds:      []int64{spec.Seed},
	})
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps = %d", code)
	}
	swst := awaitSweepState(t, srv, job.ID, StateDone)
	st := awaitDone(t, srv, sub.Job.ID)
	cells, _ := readCells(t, srv, job.ID)
	if len(cells) != 1 || cells[0].Error != "" || !cells[0].FromCache {
		t.Fatalf("cells = %+v, want one coalesced cache-served cell", cells)
	}
	if *cells[0].Outcome != *st.Outcome {
		t.Fatalf("coalesced outcome differs: %+v vs %+v", cells[0].Outcome, st.Outcome)
	}
	if swst.Summary.Executed != 0 || swst.Summary.CacheHits != 1 {
		t.Fatalf("summary = %+v", swst.Summary)
	}
	if runs := m.RunsExecuted(); runs != 1 {
		t.Fatalf("RunsExecuted = %d, want 1 — the sweep re-simulated an in-flight spec", runs)
	}
}

func TestSweepCellsHonorRunTimeLimit(t *testing.T) {
	t.Parallel()
	// A 10ms per-run budget against a run that takes seconds (the
	// longSpec workload): the cell is aborted between rounds and
	// reported as that cell's error, and the sweep still completes with
	// a summary — no indefinite engine-fleet occupancy.
	srv, _ := newTestServer(t, Config{Workers: 1, RunTimeLimit: 10 * time.Millisecond})
	job, code := postSweepJob(t, srv, longSweepSpec(1))
	if code != http.StatusAccepted {
		t.Fatalf("code = %d", code)
	}
	st := awaitSweepState(t, srv, job.ID, StateDone)
	cells, _ := readCells(t, srv, job.ID)
	if len(cells) != 1 || cells[0].Error == "" {
		t.Fatalf("cells = %+v", cells)
	}
	if !strings.Contains(cells[0].Error, "time limit") {
		t.Fatalf("cell error %q does not mention the time limit", cells[0].Error)
	}
	if !st.Summary.Done || st.Summary.Errors != 1 {
		t.Fatalf("summary = %+v", st.Summary)
	}
}

func TestSweepErrorsReportedPerCell(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 1})
	// MaxRounds 1 cannot finish graph-to-star: the cell errs, the
	// sweep completes.
	job, code := postSweepJob(t, srv, SweepSpec{
		Algorithms: []string{"graph-to-star", "flood"},
		Workloads:  []string{"line"},
		Sizes:      []int{8},
		Seeds:      []int64{1},
		MaxRounds:  1,
	})
	if code != http.StatusAccepted {
		t.Fatalf("code = %d", code)
	}
	st := awaitSweepState(t, srv, job.ID, StateDone)
	cells, _ := readCells(t, srv, job.ID)
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	if cells[0].Error == "" || cells[0].Outcome != nil {
		t.Fatalf("round-limited star cell: %+v", cells[0])
	}
	if !st.Summary.Done || st.Summary.Errors == 0 {
		t.Fatalf("summary = %+v", st.Summary)
	}
}

func TestSweepBusyFailsFastWith503(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 1, SweepWorkers: 1, MaxConcurrentSweeps: 1})

	job, code := postSweepJob(t, srv, longSweepSpec(1, 2, 3, 4))
	if code != http.StatusAccepted {
		t.Fatalf("first sweep = %d", code)
	}
	if _, code := postSweepJob(t, srv, sweepSpec()); code != http.StatusServiceUnavailable {
		t.Fatalf("second concurrent sweep = %d, want 503", code)
	}
	// Cancel the occupant; the slot frees and a new sweep is accepted.
	cancelSweep(t, srv, job.ID, http.StatusNoContent)
	awaitSweepState(t, srv, job.ID, StateCanceled)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, code := postSweepJob(t, srv, sweepSpec()); code == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep slot never freed after cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func cancelSweep(t *testing.T, srv *httptest.Server, id string, want int) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sweeps/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != want {
		t.Fatalf("DELETE /v1/sweeps/%s = %d, want %d", id, resp.StatusCode, want)
	}
}

// TestSweepCancelPropagatesIntoCellsPromptly pins the fix for the
// old synchronous handler's weakness: cancellation must reach the
// engine fleet between rounds, not after the grid drains. An 8-cell
// grid of ~100ms cells on one worker would run for seconds; canceling
// after the first cell must reach a terminal state in a fraction of
// that, with the unreached cells reported as per-cell errors.
func TestSweepCancelPropagatesIntoCellsPromptly(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 1, SweepWorkers: 1})

	job, code := postSweepJob(t, srv, slowSweepSpec(1, 2, 3, 4, 5, 6, 7, 8))
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	// Wait for the first cell to finish so the sweep is provably
	// mid-grid, then cancel.
	deadline := time.Now().Add(60 * time.Second)
	for getSweepStatus(t, srv, job.ID).CellsDone == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first cell never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
	canceledAt := time.Now()
	cancelSweep(t, srv, job.ID, http.StatusNoContent)
	st := awaitSweepState(t, srv, job.ID, StateCanceled)
	if elapsed := time.Since(canceledAt); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %s to reach the fleet", elapsed)
	}
	if st.Error == "" || st.Summary == nil || st.Summary.Done {
		t.Fatalf("canceled sweep status = %+v", st)
	}
	if st.Summary.Errors == 0 {
		t.Fatalf("summary = %+v, want skipped cells reported as errors", st.Summary)
	}
	// The stream still replays what finished, trailed by the summary.
	cells, summary := readCells(t, srv, job.ID)
	if len(cells) != st.Summary.Cells {
		t.Fatalf("stream replayed %d cells, summary says %d", len(cells), st.Summary.Cells)
	}
	if summary == nil || summary.Done {
		t.Fatalf("streamed summary = %+v", summary)
	}
	finished := 0
	for _, c := range cells {
		if c.Error == "" {
			finished++
		} else if !strings.Contains(c.Error, "cancel") {
			t.Fatalf("unreached cell error %q does not mention cancellation", c.Error)
		}
	}
	if finished == 0 || finished == len(cells) {
		t.Fatalf("finished %d of %d cells; want a mid-grid cancellation", finished, len(cells))
	}
	// Aggregation over the partial sweep still works, counting the
	// canceled cells as errors.
	agg, code := getAggregate(t, srv, job.ID)
	if code != http.StatusOK || len(agg.Groups) != 1 {
		t.Fatalf("aggregate = %d %+v", code, agg)
	}
	if g := agg.Groups[0]; g.Seeds != finished || g.Errors != len(cells)-finished {
		t.Fatalf("group = %+v, want %d seeds and %d errors", g, finished, len(cells)-finished)
	}
	// Re-cancel is a conflict.
	cancelSweep(t, srv, job.ID, http.StatusConflict)
}

// TestSweepCancelBeforeStartStreamsSkipLines cancels a sweep right
// after submitting it. Whether the cancel lands before the executor
// starts or just after, the sweep streams the executor's own contract:
// one skip line per cell, a summary counting them, state canceled and
// the same error text a mid-grid cancel gives. Under heavy load the
// one runner may already have begun cell 0; that cell then carries the
// engine's interruption instead of a skip.
func TestSweepCancelBeforeStartStreamsSkipLines(t *testing.T) {
	t.Parallel()
	srv, m := newTestServer(t, Config{Workers: 1, SweepWorkers: 1})
	spec := slowSweepSpec(1, 2, 3, 4)
	j, err := m.SubmitSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CancelSweep(j.ID); err != nil {
		t.Fatal(err)
	}
	st := awaitSweepState(t, srv, j.ID, StateCanceled)
	if !strings.HasPrefix(st.Error, "canceled by request:") {
		t.Fatalf("error = %q, want the canceled-by-request text", st.Error)
	}
	cells, summary := readCells(t, srv, j.ID)
	if len(cells) != spec.NumCells() {
		t.Fatalf("stream has %d cell lines, grid has %d", len(cells), spec.NumCells())
	}
	errs := 0
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("line %d carries index %d", i, c.Index)
		}
		if c.Error == "" {
			continue
		}
		errs++
		interrupted := i == 0 && strings.Contains(c.Error, sim.ErrCanceled.Error())
		if !strings.Contains(c.Error, "cell skipped") && !interrupted {
			t.Fatalf("cell %d error %q is not a skip", i, c.Error)
		}
	}
	if st.Summary == nil || summary == nil || *summary != *st.Summary {
		t.Fatalf("streamed summary %+v, status summary %+v", summary, st.Summary)
	}
	if summary.Done || summary.Cells != spec.NumCells() || summary.Errors != errs {
		t.Fatalf("summary = %+v, want %d cells and %d errors", summary, spec.NumCells(), errs)
	}
}

// TestSweepSubscriberDisconnectDoesNotCancelJob pins the other half
// of the job promotion: a /cells subscriber going away must end only
// its own stream — the sweep (and any other subscriber) continues.
func TestSweepSubscriberDisconnectDoesNotCancelJob(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 1, SweepWorkers: 1})

	job, code := postSweepJob(t, srv, slowSweepSpec(1, 2, 3))
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	// Subscribe, read one line, then drop the connection.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/sweeps/"+job.ID+"/cells", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("first cell line: %v", err)
	}
	cancel()
	resp.Body.Close()

	// The sweep still runs to completion with every cell successful.
	st := awaitSweepState(t, srv, job.ID, StateDone)
	if st.Summary.Executed != 3 || st.Summary.Errors != 0 {
		t.Fatalf("summary after subscriber disconnect = %+v", st.Summary)
	}
	cells, summary := readCells(t, srv, job.ID)
	if len(cells) != 3 || summary == nil || !summary.Done {
		t.Fatalf("late replay got %d cells, summary %+v", len(cells), summary)
	}
}

func TestSweepAggregateEndpoint(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 1, SweepWorkers: 2})

	spec := SweepSpec{
		Algorithms: []string{"graph-to-star", "flood"},
		Workloads:  []string{"line"},
		Sizes:      []int{16, 24},
		Seeds:      []int64{1, 2, 3},
	}
	job, _ := postSweepJob(t, srv, spec)
	awaitSweepState(t, srv, job.ID, StateDone)
	cells, _ := readCells(t, srv, job.ID)

	agg, code := getAggregate(t, srv, job.ID)
	if code != http.StatusOK {
		t.Fatalf("GET aggregate = %d", code)
	}
	if agg.ID != job.ID || agg.State != StateDone {
		t.Fatalf("aggregate header = %+v", agg)
	}
	wantGroups := len(spec.Algorithms) * len(spec.Workloads) * len(spec.Sizes)
	if len(agg.Groups) != wantGroups {
		t.Fatalf("groups = %d, want %d", len(agg.Groups), wantGroups)
	}
	// Cross-check one group against the raw cells.
	g := agg.Groups[0]
	if g.Algorithm != "graph-to-star" || g.Workload != "line" || g.N != 16 {
		t.Fatalf("first group = %+v, want canonical order", g)
	}
	var sum, minR, maxR float64
	count := 0
	for _, c := range cells {
		if c.Algorithm == g.Algorithm && c.Workload == g.Workload && c.N == g.N {
			r := float64(c.Outcome.Rounds)
			if count == 0 || r < minR {
				minR = r
			}
			if count == 0 || r > maxR {
				maxR = r
			}
			sum += r
			count++
		}
	}
	if g.Seeds != count || g.Seeds != len(spec.Seeds) || g.Errors != 0 {
		t.Fatalf("group seeds = %d errors = %d, want %d/0", g.Seeds, g.Errors, count)
	}
	if g.LeadersOK != g.Seeds {
		t.Fatalf("leaders_ok = %d, want %d", g.LeadersOK, g.Seeds)
	}
	if want := sum / float64(count); g.Rounds.Mean != want || g.Rounds.Min != minR || g.Rounds.Max != maxR {
		t.Fatalf("rounds stat = %+v, want mean %v min %v max %v", g.Rounds, want, minR, maxR)
	}
	if g.Rounds.Min > g.Rounds.Mean || g.Rounds.Mean > g.Rounds.Max {
		t.Fatalf("rounds stat not ordered: %+v", g.Rounds)
	}
	if g.TotalMessages.Mean <= 0 {
		t.Fatalf("message stat empty: %+v", g.TotalMessages)
	}

	// Unknown sweep → 404; running sweep → 409. The 409 assertion
	// must tolerate the sweep winning the race and finishing first.
	if _, code := getAggregate(t, srv, "sweep-999999-ffffffff"); code != http.StatusNotFound {
		t.Fatalf("aggregate of unknown sweep = %d, want 404", code)
	}
	running, _ := postSweepJob(t, srv, slowSweepSpec(7, 8, 9, 10))
	_, code = getAggregate(t, srv, running.ID)
	switch st := getSweepStatus(t, srv, running.ID); {
	case code == http.StatusConflict:
	case code == http.StatusOK && st.State == StateDone:
		t.Log("sweep finished before the aggregate call; 200 is correct")
	default:
		t.Fatalf("aggregate of %s sweep = %d", st.State, code)
	}
	awaitSweepState(t, srv, running.ID, StateDone)
}

// TestAggregateFromFrames pins the aggregate a sweep serves — decoded
// from its cell log's frames on request — to the bytes of the same
// grid executed and folded in process, typed all the way: healthy
// cells, cells that fail (they fold as group errors), and cells run
// under a dynamics environment.
func TestAggregateFromFrames(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 1, SweepWorkers: 2, MaxConcurrentSweeps: 3})

	healthy := sweepSpec()
	failing := sweepSpec()
	failing.MaxRounds = 1
	perturbed := sweepSpec()
	perturbed.Dynamics = &dynamics.Spec{Class: dynamics.ClassEdgeChurn, Rate: 2}
	for name, spec := range map[string]SweepSpec{"healthy": healthy, "failing": failing, "dynamics": perturbed} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			job, code := postSweepJob(t, srv, spec)
			if code != http.StatusAccepted {
				t.Fatalf("POST = %d", code)
			}
			awaitSweepState(t, srv, job.ID, StateDone)

			resp, err := http.Get(srv.URL + "/v1/sweeps/" + job.ID + "/aggregate")
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("GET aggregate = %d, %v", resp.StatusCode, err)
			}

			groups, err := expt.AggregateSweep(spec)
			if err != nil {
				t.Fatal(err)
			}
			if name == "failing" && groups[0].Errors != len(spec.Seeds) {
				t.Fatalf("max_rounds=1 star group = %+v, want every seed an error", groups[0])
			}
			want := jsonFrame(sweepAggregateResponse{ID: job.ID, State: StateDone, Groups: groups})
			if !bytes.Equal(got, want) {
				t.Errorf("aggregate differs from the in-process fold:\ngot  %s\nwant %s", got, want)
			}
		})
	}
}

// TestSweepAggregateNonTerminalReturns409 is the regression test for
// the endpoint's status mapping: aggregating a sweep that has not
// reached a terminal state is a client-resolvable conflict — 409 with
// the ErrSweepRunning message — never a 500. Only a genuine server
// fault may produce 500.
func TestSweepAggregateNonTerminalReturns409(t *testing.T) {
	t.Parallel()
	srv, m := newTestServer(t, Config{Workers: 1, SweepWorkers: 1})

	job, code := postSweepJob(t, srv, slowSweepSpec(1, 2, 3, 4))
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	resp, err := http.Get(srv.URL + "/v1/sweeps/" + job.ID + "/aggregate")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusInternalServerError {
		t.Fatalf("non-terminal aggregate returned 500: %s", body)
	}
	switch st := getSweepStatus(t, srv, job.ID); {
	case resp.StatusCode == http.StatusConflict:
		if !strings.Contains(string(body), "still running") {
			t.Fatalf("409 body = %s, want the ErrSweepRunning message", body)
		}
	case resp.StatusCode == http.StatusOK && st.State == StateDone:
		t.Log("sweep finished before the aggregate call; 200 is correct")
	default:
		t.Fatalf("aggregate of %s sweep = %d: %s", st.State, resp.StatusCode, body)
	}

	// Once terminal — even canceled — the endpoint serves 200 with the
	// cells that did finish.
	if err := m.CancelSweep(job.ID); err != nil && !errors.Is(err, ErrNotRunning) {
		t.Fatal(err)
	}
	awaitSweepState(t, srv, job.ID, StateDone, StateCanceled)
	if _, code := getAggregate(t, srv, job.ID); code != http.StatusOK {
		t.Fatalf("aggregate after terminal state = %d, want 200", code)
	}
}

// TestManagerCloseCancelsRunningSweeps pins the graceful-shutdown
// contract: Close must not stall behind a sweep that could legally
// run for SweepTimeLimit — it cancels live sweeps and returns once
// the fleet aborts between rounds.
func TestManagerCloseCancelsRunningSweeps(t *testing.T) {
	t.Parallel()
	m := NewManager(Config{Workers: 1, SweepWorkers: 1})

	j, err := m.SubmitSweep(context.Background(), longSweepSpec(1, 2, 3, 4, 5, 6, 7, 8))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	m.Close()
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("Close stalled %s behind a running sweep", elapsed)
	}
	if st := j.State(); st != StateCanceled {
		t.Fatalf("sweep state after Close = %s, want canceled", st)
	}
	if st := j.Status(); st.Summary == nil {
		t.Fatal("canceled sweep must still carry a summary")
	}
}

func TestSweepRetentionBoundsSweepTable(t *testing.T) {
	t.Parallel()
	m := NewManager(Config{Workers: 1, RetainSweeps: 2})
	defer m.Close()

	small := SweepSpec{
		Algorithms: []string{"flood"},
		Workloads:  []string{"line"},
		Sizes:      []int{8},
	}
	var last *SweepJob
	for seed := int64(0); seed < 4; seed++ {
		small.Seeds = []int64{seed}
		j, err := m.SubmitSweep(context.Background(), small)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for j.State() != StateDone {
			if time.Now().After(deadline) {
				t.Fatalf("sweep stuck in %s", j.State())
			}
			time.Sleep(time.Millisecond)
		}
		last = j
	}
	if got := len(m.Sweeps()); got != 2 {
		t.Fatalf("sweep table holds %d jobs, want 2 (retention bound)", got)
	}
	if _, ok := m.GetSweep(last.ID); !ok {
		t.Error("newest finished sweep must survive retention")
	}
}
