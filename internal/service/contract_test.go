package service

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"

	"adnet/internal/obs"
)

// TestErrorCodeStatusTable pins the code→status table of the v1 error
// envelope. Changing a mapping, or adding a code without one, is an
// API contract change and must be made here deliberately.
func TestErrorCodeStatusTable(t *testing.T) {
	t.Parallel()
	want := map[string]int{
		"invalid_request":  http.StatusBadRequest,
		"invalid_cursor":   http.StatusBadRequest,
		"not_found":        http.StatusNotFound,
		"already_done":     http.StatusConflict,
		"sweep_running":    http.StatusConflict,
		"queue_full":       http.StatusServiceUnavailable,
		"sweep_busy":       http.StatusServiceUnavailable,
		"shutting_down":    http.StatusServiceUnavailable,
		"worker_unhealthy": http.StatusBadGateway,
		"internal":         http.StatusInternalServerError,
	}
	if len(codeStatus) != len(want) {
		t.Fatalf("codeStatus has %d codes, the pinned table %d", len(codeStatus), len(want))
	}
	for code, status := range want {
		if got, ok := codeStatus[code]; !ok || got != status {
			t.Errorf("codeStatus[%q] = %d (present %v), want %d", code, got, ok, status)
		}
	}
}

// getEnvelope performs a request expecting an error and decodes the v1
// envelope strictly: the body must be exactly
// {"error":{"code","message","request_id"}}.
func getEnvelope(t *testing.T, req *http.Request) (int, ErrorBody) {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s %s: Content-Type = %q, want application/json", req.Method, req.URL.Path, ct)
	}
	var envelope errorResponse
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&envelope); err != nil {
		t.Fatalf("%s %s: body is not the v1 envelope: %v", req.Method, req.URL.Path, err)
	}
	return resp.StatusCode, envelope.Error
}

// TestErrorEnvelopeShape exercises the envelope across representative
// failure routes: every v1 error is {"error":{code,message,request_id}}
// with the status derived from the code and the request ID echoing the
// middleware's X-Adnet-Request-Id.
func TestErrorEnvelopeShape(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 1})

	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode string
	}{
		{"unknown run", http.MethodGet, "/v1/runs/run-0-nope", "", "not_found"},
		{"unknown sweep", http.MethodGet, "/v1/sweeps/sweep-0-nope", "", "not_found"},
		{"unknown route", http.MethodGet, "/v1/bogus", "", "not_found"},
		{"bad run spec", http.MethodPost, "/v1/runs", `{"algorithm":"nope","workload":"line","n":8,"seed":1}`, "invalid_request"},
		{"bad sweep spec", http.MethodPost, "/v1/sweeps", `{not json`, "invalid_request"},
		{"bad cursor", http.MethodGet, "/v1/runs/run-0-nope/rounds?cursor=banana", "", "not_found"},
		{"unknown aggregate", http.MethodGet, "/v1/sweeps/sweep-0-nope/aggregate", "", "not_found"},
		{"cancel unknown run", http.MethodDelete, "/v1/runs/run-0-nope", "", "not_found"},
	}
	for _, tc := range cases {
		var body io.Reader
		if tc.body != "" {
			body = strings.NewReader(tc.body)
		}
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.RequestIDHeader, "envelope-test-1")
		status, eb := getEnvelope(t, req)
		if eb.Code != tc.wantCode {
			t.Errorf("%s: code = %q, want %q (message %q)", tc.name, eb.Code, tc.wantCode, eb.Message)
		}
		if want := codeStatus[eb.Code]; status != want {
			t.Errorf("%s: status = %d, want %d (the table's mapping for %q)", tc.name, status, want, eb.Code)
		}
		if eb.Message == "" {
			t.Errorf("%s: empty message", tc.name)
		}
		if eb.RequestID != "envelope-test-1" {
			t.Errorf("%s: request_id = %q, want the header's ID", tc.name, eb.RequestID)
		}
	}

	// An invalid cursor on an existing stream maps to invalid_cursor.
	sub, code := postRun(t, srv, fastSpec(71))
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/runs = %d", code)
	}
	awaitDone(t, srv, sub.Job.ID)
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/runs/"+sub.Job.ID+"/rounds?cursor=-3", nil)
	status, eb := getEnvelope(t, req)
	if status != http.StatusBadRequest || eb.Code != "invalid_cursor" {
		t.Fatalf("negative cursor = %d %q, want 400 invalid_cursor", status, eb.Code)
	}
	if len(eb.RequestID) != 16 {
		t.Fatalf("request_id = %q, want a middleware-assigned 16-hex ID", eb.RequestID)
	}
}

// TestDeleteFinishedJobsAlreadyDone is the regression test for the
// DELETE conflict semantics: canceling a job or sweep that already
// reached a terminal state answers 409 with the explicit already_done
// code — distinguishable by code alone from a 404 (unknown ID) and
// from a live cancel's 204.
func TestDeleteFinishedJobsAlreadyDone(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 1, SweepWorkers: 1})

	sub, _ := postRun(t, srv, fastSpec(72))
	awaitDone(t, srv, sub.Job.ID)
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/"+sub.Job.ID, nil)
	status, eb := getEnvelope(t, req)
	if status != http.StatusConflict || eb.Code != "already_done" {
		t.Fatalf("DELETE finished run = %d %q, want 409 already_done", status, eb.Code)
	}

	job, _ := postSweepJob(t, srv, sweepSpec())
	awaitSweepState(t, srv, job.ID, StateDone)
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/sweeps/"+job.ID, nil)
	status, eb = getEnvelope(t, req)
	if status != http.StatusConflict || eb.Code != "already_done" {
		t.Fatalf("DELETE finished sweep = %d %q, want 409 already_done", status, eb.Code)
	}
}

// TestOversizedBodyRejected pins the POST body limit: dimensions are
// deduplicated after decoding, so a multi-megabyte seeds array of one
// repeated value would otherwise be read whole and accepted as a
// one-cell sweep.
func TestOversizedBodyRejected(t *testing.T) {
	t.Parallel()
	srv, m := newTestServer(t, Config{Workers: 1})

	body := `{"algorithms":["flood"],"workloads":["line"],"sizes":[8],"seeds":[1` +
		strings.Repeat(",1", maxBodyBytes/2) + `]}`
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/sweeps", strings.NewReader(body))
	status, eb := getEnvelope(t, req)
	if status != http.StatusBadRequest || eb.Code != "invalid_request" {
		t.Fatalf("POST of a %d-byte sweep body = %d %q, want 400 invalid_request", len(body), status, eb.Code)
	}
	if n := len(m.Sweeps()); n != 0 {
		t.Errorf("oversized body created %d sweep jobs", n)
	}
}

// streamLines drains one NDJSON stream response and returns its lines
// plus the X-Adnet-Next-Cursor trailer (readable only after EOF).
func streamLines(t *testing.T, url string) ([]string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	lines, trailer, err := readLines(resp)
	if err != nil {
		t.Fatal(err)
	}
	return lines, trailer
}

// readLines reads an NDJSON response body to EOF: its non-blank lines
// and its next-cursor trailer.
func readLines(resp *http.Response) (lines []string, trailer string, err error) {
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			lines = append(lines, line)
		}
	}
	return lines, resp.Trailer.Get(nextCursorTrailer), sc.Err()
}

// TestStreamCursorResumesAndTrailer pins the ?cursor=N replay
// contract on the rounds, topology and cells streams: cursor=N skips
// the first N frames, and the next resume cursor comes back in the
// X-Adnet-Next-Cursor trailer. Both topology formats are served from
// one log, so the same N names the same round in each. The cells
// stream's trailing summary line is not a frame and does not advance
// the cursor.
func TestStreamCursorResumesAndTrailer(t *testing.T) {
	t.Parallel()
	srv, _ := newTestServer(t, Config{Workers: 1, SweepWorkers: 2})

	sub, _ := postRun(t, srv, fastSpec(73))
	st := awaitDone(t, srv, sub.Job.ID)
	total := st.Outcome.Rounds
	if total < 3 {
		t.Fatalf("fastSpec ran only %d rounds; the test needs at least 3", total)
	}

	full, trailer := streamLines(t, srv.URL+"/v1/runs/"+sub.Job.ID+"/rounds")
	if len(full) != total {
		t.Fatalf("full stream = %d lines, outcome ran %d rounds", len(full), total)
	}
	if trailer != strconv.Itoa(total) {
		t.Fatalf("full-stream trailer = %q, want %d", trailer, total)
	}

	cursor := total - 2
	tail, trailer := streamLines(t, srv.URL+"/v1/runs/"+sub.Job.ID+"/rounds?cursor="+strconv.Itoa(cursor))
	if len(tail) != 2 {
		t.Fatalf("cursor=%d stream = %d lines, want 2", cursor, len(tail))
	}
	var first struct {
		Round int `json:"round"`
	}
	if err := json.Unmarshal([]byte(tail[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Round != cursor+1 {
		t.Fatalf("first resumed line is round %d, want %d", first.Round, cursor+1)
	}
	if trailer != strconv.Itoa(total) {
		t.Fatalf("resumed-stream trailer = %q, want %d", trailer, total)
	}

	// Resuming from the trailer's cursor yields nothing new — it is
	// exactly one past the last frame served.
	empty, trailer := streamLines(t, srv.URL+"/v1/runs/"+sub.Job.ID+"/rounds?cursor="+trailer)
	if len(empty) != 0 {
		t.Fatalf("resume from the trailer cursor replayed %d lines, want 0", len(empty))
	}
	if trailer != strconv.Itoa(total) {
		t.Fatalf("empty-resume trailer = %q, want %d", trailer, total)
	}

	// The topology stream, in both formats: header + one line per round,
	// so cursor=N resumes at round N.
	for _, format := range []string{"json", "packed"} {
		base := srv.URL + "/v1/runs/" + sub.Job.ID + "/topology?format=" + format
		full, trailer := streamLines(t, base)
		if len(full) != total+1 || trailer != strconv.Itoa(total+1) {
			t.Fatalf("topology (%s) = %d lines, trailer %q, want %d", format, len(full), trailer, total+1)
		}
		tail, trailer := streamLines(t, base+"&cursor="+strconv.Itoa(cursor))
		if !slices.Equal(tail, full[cursor:]) || trailer != strconv.Itoa(total+1) {
			t.Fatalf("topology (%s) cursor=%d = %q, trailer %q, want the last %d lines of the full drain", format, cursor, tail, trailer, total+1-cursor)
		}
		if err := json.Unmarshal([]byte(tail[0]), &first); err != nil {
			t.Fatal(err)
		}
		if first.Round != cursor {
			t.Fatalf("topology (%s) cursor=%d resumes at round %d, want %d", format, cursor, first.Round, cursor)
		}
		if empty, _ := streamLines(t, base+"&cursor="+trailer); len(empty) != 0 {
			t.Fatalf("topology (%s) resume from the trailer cursor replayed %d lines, want 0", format, len(empty))
		}
	}

	// The cells stream: the cursor counts cell frames; the summary line
	// trails every completed drain regardless of the cursor.
	spec := sweepSpec()
	job, _ := postSweepJob(t, srv, spec)
	awaitSweepState(t, srv, job.ID, StateDone)
	cells := spec.NumCells()
	half := cells / 2
	lines, trailer := streamLines(t, srv.URL+"/v1/sweeps/"+job.ID+"/cells?cursor="+strconv.Itoa(half))
	if trailer != strconv.Itoa(cells) {
		t.Fatalf("cells trailer = %q, want %d", trailer, cells)
	}
	if want := cells - half + 1; len(lines) != want { // +1: the summary line
		t.Fatalf("cells?cursor=%d = %d lines, want %d cells + summary", half, len(lines), want-1)
	}
	var cell SweepCell
	if err := json.Unmarshal([]byte(lines[0]), &cell); err != nil {
		t.Fatal(err)
	}
	if cell.Index != half {
		t.Fatalf("first resumed cell has index %d, want %d", cell.Index, half)
	}
	if !strings.Contains(lines[len(lines)-1], `"done"`) {
		t.Fatalf("last line is not the summary: %q", lines[len(lines)-1])
	}
}

// TestTrailingBodyDataRejected pins that a POST body is one JSON value:
// a second value or stray text after it is 400 invalid_request on every
// route that decodes a body, and creates nothing; trailing whitespace is
// not data.
func TestTrailingBodyDataRejected(t *testing.T) {
	t.Parallel()
	coordSrv, coordMgr := newCoordinator(t, 0)
	worker, _ := newTestServer(t, Config{Workers: 1})
	routes := []struct{ path, body string }{
		{"/v1/runs", `{"algorithm":"flood","workload":"line","n":8,"seed":1}`},
		{"/v1/sweeps", `{"algorithms":["flood"],"workloads":["line"],"sizes":[8],"seeds":[1]}`},
		{"/v1/fleet/workers", `{"url":"` + worker.URL + `"}`},
	}
	for _, rt := range routes {
		for _, tail := range []string{`{}`, ` trailing`, "\n{}\n"} {
			req, _ := http.NewRequest(http.MethodPost, coordSrv.URL+rt.path, strings.NewReader(rt.body+tail))
			status, eb := getEnvelope(t, req)
			if status != http.StatusBadRequest || eb.Code != "invalid_request" {
				t.Errorf("POST %s with trailing %q = %d %q, want 400 invalid_request", rt.path, tail, status, eb.Code)
			}
		}
	}
	if n := len(coordMgr.Jobs()) + len(coordMgr.Sweeps()); n != 0 {
		t.Errorf("bodies with trailing data created %d jobs", n)
	}
	if workers, _ := coordMgr.Fleet().Counts(); workers != 0 {
		t.Errorf("a body with trailing data registered %d workers", workers)
	}
	for _, rt := range routes {
		resp, err := http.Post(coordSrv.URL+rt.path, "application/json", strings.NewReader(rt.body+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			t.Errorf("POST %s with a trailing newline = %d, want success", rt.path, resp.StatusCode)
		}
	}
}
