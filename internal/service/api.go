package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"adnet/internal/expt"
	"adnet/internal/fleet"
	"adnet/internal/obs"
)

// API error codes: the stable vocabulary of the v1 error envelope.
// Every error response is {"error":{"code","message","request_id"}} —
// clients branch on code, log message, and correlate with request_id;
// the HTTP status is derived from the code via codeStatus, never
// chosen ad hoc per handler.
const (
	codeInvalidRequest  = "invalid_request"
	codeInvalidCursor   = "invalid_cursor"
	codeNotFound        = "not_found"
	codeAlreadyDone     = "already_done"
	codeSweepRunning    = "sweep_running"
	codeQueueFull       = "queue_full"
	codeSweepBusy       = "sweep_busy"
	codeShuttingDown    = "shutting_down"
	codeWorkerUnhealthy = "worker_unhealthy"
	codeInternal        = "internal"
)

// codeStatus is the single code→status mapping, pinned by
// TestErrorCodeStatusTable: adding a code without a status (or
// changing a mapping) is an API contract change and must show up in
// the test diff.
var codeStatus = map[string]int{
	codeInvalidRequest:  http.StatusBadRequest,
	codeInvalidCursor:   http.StatusBadRequest,
	codeNotFound:        http.StatusNotFound,
	codeAlreadyDone:     http.StatusConflict,
	codeSweepRunning:    http.StatusConflict,
	codeQueueFull:       http.StatusServiceUnavailable,
	codeSweepBusy:       http.StatusServiceUnavailable,
	codeShuttingDown:    http.StatusServiceUnavailable,
	codeWorkerUnhealthy: http.StatusBadGateway,
	codeInternal:        http.StatusInternalServerError,
}

// ErrorBody is the inner object of the v1 error envelope.
type ErrorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

type errorResponse struct {
	Error ErrorBody `json:"error"`
}

// writeAPIError renders err under the v1 envelope: the status comes
// from codeStatus, the request ID from the middleware-assigned
// X-Adnet-Request-Id already on r's context.
func writeAPIError(w http.ResponseWriter, r *http.Request, code string, err error) {
	status, ok := codeStatus[code]
	if !ok {
		code, status = codeInternal, http.StatusInternalServerError
	}
	body := ErrorBody{Code: code, Message: err.Error()}
	if r != nil {
		body.RequestID = obs.RequestIDFromContext(r.Context())
	}
	writeJSON(w, status, errorResponse{Error: body})
}

// submitCode maps a manager submission error to its envelope code.
// Unmapped errors are validation failures (invalid_request) — the
// submission paths return no other kind.
func submitCode(err error) string {
	switch {
	case errors.Is(err, ErrQueueFull):
		return codeQueueFull
	case errors.Is(err, ErrSweepBusy):
		return codeSweepBusy
	case errors.Is(err, ErrClosed):
		return codeShuttingDown
	default:
		return codeInvalidRequest
	}
}

// nextCursorTrailer carries the stream's next replay cursor as an
// HTTP trailer: after draining a stream to its end, cursor=<value>
// resumes exactly where this response stopped.
const nextCursorTrailer = "X-Adnet-Next-Cursor"

// parseCursor reads the optional ?cursor=N replay offset of the
// NDJSON streams (frame index to resume from; default 0).
func parseCursor(r *http.Request) (int, error) {
	q := r.URL.Query().Get("cursor")
	if q == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("service: invalid cursor %q (want a non-negative integer)", q)
	}
	return n, nil
}

// NewHandler builds the HTTP surface over a Manager:
//
//	POST   /v1/runs                  enqueue a RunSpec (JSON body) or hit the cache
//	GET    /v1/runs                  list all known jobs
//	GET    /v1/runs/{id}             job status + Outcome when finished
//	GET    /v1/runs/{id}/rounds      NDJSON stream of per-round stats (replay + live tail)
//	GET    /v1/runs/{id}/topology    NDJSON stream of per-round topology deltas
//	                                 (?format=packed for delta-varint frames)
//	DELETE /v1/runs/{id}             cancel a queued or running job
//	POST   /v1/sweeps                submit a SweepSpec grid as a fire-and-forget job
//	GET    /v1/sweeps                list all known sweep jobs
//	GET    /v1/sweeps/{id}           sweep status + summary when finished
//	GET    /v1/sweeps/{id}/cells     NDJSON stream of per-cell results (replay + live tail)
//	GET    /v1/sweeps/{id}/aggregate per-(algorithm, workload, n) stats over seeds
//	DELETE /v1/sweeps/{id}           cancel a queued or running sweep
//	GET    /v1/algorithms            runnable algorithm names
//	GET    /v1/workloads             initial-network family names
//	GET    /healthz                  liveness + pool/cache counters
//
// The NDJSON streams accept ?cursor=N to resume replay from frame N
// instead of frame zero, and echo the next resume cursor in the
// X-Adnet-Next-Cursor trailer when the stream completes.
//
// In coordinator mode (Config.Fleet set) two more routes manage the
// worker registry, and sweeps are executed by sharding the grid across
// the registered workers rather than on the local engine fleet:
//
//	POST   /v1/fleet/workers         register a worker server {"url": ...}
//	GET    /v1/fleet/workers         registry with per-worker health
//
// Every route is wrapped by the manager's HTTP instrumentation: the
// mux pattern becomes the metric route label (bounded cardinality —
// never the raw path), a request ID is assigned or reused from
// X-Adnet-Request-Id, and GET /metrics serves the registry in
// Prometheus text exposition format. Every error response, including
// the unknown-route fallback, wears the v1 JSON envelope.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, m.metrics.httpm.Wrap(pattern, h))
	}
	handle("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		var spec RunSpec
		if !decodeBody(w, r, &spec) {
			return
		}
		job, cached, err := m.Submit(spec)
		if err != nil {
			writeAPIError(w, r, submitCode(err), err)
			return
		}
		code := http.StatusAccepted
		if cached {
			code = http.StatusOK
		}
		writeJSON(w, code, submitResponse{Job: job.Status(), Cached: cached})
	})
	handleJobs(handle, "/v1/runs", m.runs)
	handle("GET /v1/runs/{id}/rounds", func(w http.ResponseWriter, r *http.Request) {
		if job, cursor, ok := streamTarget(w, r, m.runs); ok {
			streamNDJSON(w, r, job.log, renderRounds, 1, cursor, m.cfg.StreamWriteTimeout, m.metrics.roundsSub)
		}
	})
	handle("GET /v1/runs/{id}/topology", func(w http.ResponseWriter, r *http.Request) {
		job, cursor, ok := streamTarget(w, r, m.runs)
		if !ok {
			return
		}
		switch r.URL.Query().Get("format") {
		case "", "json":
			streamNDJSON(w, r, job.log, renderJSON, 0, cursor, m.cfg.StreamWriteTimeout, m.metrics.topoSub)
		case "packed":
			streamNDJSON(w, r, job.log, renderPacked, 0, cursor, m.cfg.StreamWriteTimeout, m.metrics.packedSub)
		default:
			writeAPIError(w, r, codeInvalidRequest,
				errors.New("service: unknown topology format (want json or packed)"))
		}
	})
	handle("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		var spec SweepSpec
		if !decodeBody(w, r, &spec) {
			return
		}
		job, err := m.SubmitSweep(r.Context(), spec)
		if err != nil {
			writeAPIError(w, r, submitCode(err), err)
			return
		}
		writeJSON(w, http.StatusAccepted, sweepSubmitResponse{Sweep: job.Status()})
	})
	handleJobs(handle, "/v1/sweeps", m.sweeps)
	handle("GET /v1/sweeps/{id}/cells", func(w http.ResponseWriter, r *http.Request) {
		job, cursor, ok := streamTarget(w, r, m.sweeps)
		if !ok {
			return
		}
		// A subscriber disconnect ends only this stream — the sweep
		// keeps running for other subscribers. The summary line trails
		// the cells once the sweep is terminal.
		done := streamNDJSON(w, r, job.cells, job.renderCell, 0, cursor, m.cfg.StreamWriteTimeout, m.metrics.cellsSub)
		if !done {
			return
		}
		if st := job.Status(); st.Summary != nil {
			_, _ = w.Write(jsonFrame(st.Summary))
		}
	})
	handle("GET /v1/sweeps/{id}/aggregate", func(w http.ResponseWriter, r *http.Request) {
		job, ok := lookupJob(w, r, m.sweeps)
		if !ok {
			return
		}
		groups, err := job.Aggregate()
		switch {
		case err == nil:
		case errors.Is(err, ErrSweepRunning):
			// A non-terminal sweep is a caller-resolvable conflict
			// (retry once the job is terminal), not a server fault.
			writeAPIError(w, r, codeSweepRunning, err)
			return
		default:
			writeAPIError(w, r, codeInternal, err)
			return
		}
		writeJSON(w, http.StatusOK, sweepAggregateResponse{
			ID:     job.ID,
			State:  job.State(),
			Groups: groups,
		})
	})
	if fl := m.Fleet(); fl != nil {
		handle("POST /v1/fleet/workers", func(w http.ResponseWriter, r *http.Request) {
			var req workerRegistration
			if !decodeBody(w, r, &req) {
				return
			}
			st, err := fl.Register(r.Context(), req.URL)
			switch {
			case err == nil:
				writeJSON(w, http.StatusCreated, st)
			case errors.Is(err, fleet.ErrDuplicateWorker):
				// Idempotent re-registration: report the existing
				// worker's freshly probed status.
				writeJSON(w, http.StatusOK, st)
			case errors.Is(err, fleet.ErrInvalidWorkerURL):
				writeAPIError(w, r, codeInvalidRequest, err)
			default:
				// The worker exists but failed its health probe.
				writeAPIError(w, r, codeWorkerUnhealthy, err)
			}
		})
		handle("GET /v1/fleet/workers", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, fl.Workers(r.Context()))
		})
	}
	handle("GET /v1/algorithms", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, expt.Algorithms())
	})
	handle("GET /v1/workloads", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, expt.Workloads())
	})
	handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Stats: m.Stats()})
	})
	mux.Handle("GET /metrics", m.metrics.httpm.Wrap("GET /metrics", m.Registry().Handler()))
	// Unmatched routes get the envelope too, not the mux's plaintext
	// 404 — one error shape across the whole surface.
	mux.Handle("/", m.metrics.httpm.Wrap("fallback", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeAPIError(w, r, codeNotFound,
			fmt.Errorf("service: no route for %s %s", r.Method, r.URL.Path))
	})))
	return mux
}

// maxBodyBytes caps a POST body. Dimensions are deduplicated only
// after decoding, so without it a body of one repeated value is read
// whole into memory; a default-limit grid (at most 1,024 cells) is a
// few kilobytes.
const maxBodyBytes = 1 << 20

// decodeBody reads the request's JSON body into v, rejecting unknown
// fields, anything but whitespace after the one JSON value, and bodies
// over maxBodyBytes; it answers invalid_request itself when the body is
// bad.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("request body holds data after its JSON value")
		}
	}
	if err != nil {
		writeAPIError(w, r, codeInvalidRequest, err)
		return false
	}
	return true
}

// handleJobs mounts the three routes every job kind has — list,
// status, cancel — over the kind's table.
func handleJobs[J job[S], S any](handle func(string, http.HandlerFunc), base string, t *jobTable[J, S]) {
	handle("GET "+base, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, t.statuses())
	})
	handle("GET "+base+"/{id}", func(w http.ResponseWriter, r *http.Request) {
		if j, ok := lookupJob(w, r, t); ok {
			writeJSON(w, http.StatusOK, j.Status())
		}
	})
	handle("DELETE "+base+"/{id}", func(w http.ResponseWriter, r *http.Request) {
		err := t.cancel(r.PathValue("id"))
		switch {
		case err == nil:
			w.WriteHeader(http.StatusNoContent)
		case errors.Is(err, ErrNotFound):
			writeAPIError(w, r, codeNotFound, err)
		default:
			// The job already reached a terminal state: an explicit
			// already_done, distinguishable from a live cancel's 204.
			writeAPIError(w, r, codeAlreadyDone, err)
		}
	})
}

// lookupJob resolves the request's {id} in t, answering not_found
// itself when there is no such job.
func lookupJob[J job[S], S any](w http.ResponseWriter, r *http.Request, t *jobTable[J, S]) (J, bool) {
	j, ok := t.get(r.PathValue("id"))
	if !ok {
		writeAPIError(w, r, codeNotFound, ErrNotFound)
	}
	return j, ok
}

// streamTarget resolves what an NDJSON stream request names — the job
// by {id}, the replay offset by ?cursor= — answering the error itself
// when either is bad.
func streamTarget[J job[S], S any](w http.ResponseWriter, r *http.Request, t *jobTable[J, S]) (J, int, bool) {
	j, ok := lookupJob(w, r, t)
	if !ok {
		return j, 0, false
	}
	cursor, err := parseCursor(r)
	if err != nil {
		writeAPIError(w, r, codeInvalidCursor, err)
		return j, 0, false
	}
	return j, cursor, true
}

// streamNDJSON replays s to the client as NDJSON — history from the
// request's cursor (frame index, default 0), then a live tail until
// the log closes. The log holds records, not lines: each is rendered
// on this subscriber's goroutine into one pooled buffer, written every
// renderChunk bytes and at the end of each batch. Frame i is record
// first+i (a run's /rounds skips the header), so a cursor names the
// same round in every format of a run. It returns done=true when the
// stream was fully drained, done=false when the subscriber was dropped
// mid-stream; callers append trailing lines (e.g. a sweep summary)
// only when done. The frame index one past the last frame written —
// the cursor that resumes exactly after this response — is echoed in
// the X-Adnet-Next-Cursor trailer.
//
// Backpressure: each write (each chunk, once it is rendered) runs
// under writeTimeout, via http.ResponseController. A subscriber that
// cannot drain it in time fails its write and is dropped — the
// producer, appending to the shared frame log, is never blocked by a
// stalled reader, and other subscribers keep tailing unaffected.
func streamNDJSON(w http.ResponseWriter, r *http.Request, s *frameLog, render renderFunc, first, cursor int, writeTimeout time.Duration, sub subscriberObs) (done bool) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	// Declared before the status line so the client knows to expect
	// it; the value lands when the handler returns.
	w.Header().Set("Trailer", nextCursorTrailer)
	next := first + cursor // the next record to serve
	defer func() {
		w.Header().Set(nextCursorTrailer, strconv.Itoa(next-first))
	}()
	w.WriteHeader(http.StatusOK)
	// Push the status line now: the first batch may be a long Wait away
	// and clients time out on a silent start. Flush and deadline errors
	// are deliberately ignored: a ResponseWriter without support for
	// them (in-process tests) streams without.
	rc := http.NewResponseController(w)
	_ = rc.Flush()
	sub.subscribers.Inc()
	defer sub.subscribers.Dec()
	buf := renderBufs.Get().(*[]byte)
	defer putRenderBuf(buf)
	for {
		batch, more := s.WaitFrames(r.Context(), next)
		if !more {
			return r.Context().Err() == nil
		}
		var batchBytes int64
		out := (*buf)[:0]
		for i, rec := range batch {
			out = render(out, rec, next+i)
			if len(out) >= renderChunk || i == len(batch)-1 {
				if writeTimeout > 0 {
					_ = rc.SetWriteDeadline(time.Now().Add(writeTimeout))
				}
				if _, err := w.Write(out); err != nil {
					sub.dropped.Inc()
					return false
				}
				batchBytes += int64(len(out))
				out = out[:0]
			}
		}
		*buf = out
		next += len(batch)
		sub.frames.Add(int64(len(batch)))
		sub.bytes.Add(batchBytes)
		_ = rc.Flush()
	}
}

// renderChunk is how many rendered bytes a subscriber buffers before it
// writes them: large enough that a run's or a sweep's stream is a few
// writes, small enough that the pooled buffers stay cheap to keep.
const renderChunk = 32 << 10

// renderBufs pools the subscribers' render buffers.
var renderBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 2*renderChunk)
	return &b
}}

// putRenderBuf returns buf to the pool unless a frame larger than a
// chunk grew it.
func putRenderBuf(buf *[]byte) {
	if cap(*buf) <= 2*renderChunk {
		renderBufs.Put(buf)
	}
}

type submitResponse struct {
	Job    JobStatus `json:"job"`
	Cached bool      `json:"cached"`
}

type sweepSubmitResponse struct {
	Sweep SweepStatus `json:"sweep"`
}

type workerRegistration struct {
	URL string `json:"url"`
}

type sweepAggregateResponse struct {
	ID     string                `json:"id"`
	State  JobState              `json:"state"`
	Groups []expt.AggregateGroup `json:"groups"`
}

type healthResponse struct {
	Status string `json:"status"`
	Stats  Stats  `json:"stats"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Encode errors after the status line is committed can only be
	// surfaced by aborting the connection; let the client see EOF.
	_ = json.NewEncoder(w).Encode(v)
}
