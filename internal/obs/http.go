package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"time"
)

// RequestIDHeader carries a request's correlation ID between
// processes: the coordinator's dispatcher copies it onto every
// worker-bound request, so one sweep's lifecycle is traceable across
// the fleet by grepping logs for a single ID.
const RequestIDHeader = "X-Adnet-Request-Id"

type requestIDKey struct{}

// ContextWithRequestID attaches a request ID to the context.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFromContext returns the request ID attached to the
// context, or "".
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// SetRequestIDHeader copies the context's request ID (if any) onto an
// outbound request — the dispatcher-side half of propagation.
func SetRequestIDHeader(req *http.Request) {
	if id := RequestIDFromContext(req.Context()); id != "" {
		req.Header.Set(RequestIDHeader, id)
	}
}

// newRequestID returns a fresh 16-hex-character request ID.
func newRequestID() string {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// crypto/rand never fails on supported platforms; an inert ID
		// beats an unreachable panic path in request handling.
		return "rand-unavailable"
	}
	return hex.EncodeToString(buf[:])
}

// maxRequestIDLen bounds an inbound request ID.
const maxRequestIDLen = 64

// validRequestID reports whether an inbound request ID may be reused:
// 1 to maxRequestIDLen characters of [A-Za-z0-9._-]. Anything else is
// replaced, so a client cannot put arbitrary bytes into log lines,
// response headers and worker-bound requests.
func validRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		switch c := id[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// HTTPMetrics instruments mux routes: per-route/per-status request
// counters, per-route latency histograms, request-ID assignment, and
// one structured access-log line per request.
type HTTPMetrics struct {
	requests *CounterVec
	latency  *HistogramVec
	inflight *Gauge
	log      *slog.Logger
}

// NewHTTPMetrics registers the HTTP metric families on reg. logger
// may be nil for metrics-only instrumentation (tests).
func NewHTTPMetrics(reg *Registry, logger *slog.Logger) *HTTPMetrics {
	return &HTTPMetrics{
		requests: reg.CounterVec("adnet_http_requests_total",
			"HTTP requests served, by mux route pattern and status code.",
			"route", "code"),
		latency: reg.HistogramVec("adnet_http_request_duration_seconds",
			"HTTP request latency by mux route pattern.",
			LatencyBuckets(), "route"),
		inflight: reg.Gauge("adnet_http_requests_in_flight",
			"HTTP requests currently being served."),
		log: logger,
	}
}

// Wrap instruments one handler under the given route label. Routes
// are the mux pattern strings — a finite set fixed at registration,
// never a raw URL path, keeping label cardinality bounded.
//
// The wrapper also owns the request ID: it reuses a valid inbound
// X-Adnet-Request-Id (worker side of fleet propagation) or assigns a
// fresh one, stores it in the request context, and echoes it on the
// response so clients can quote it back.
func (h *HTTPMetrics) Wrap(route string, next http.Handler) http.Handler {
	requests := h.requests
	latency := latencyObserver(h.latency, route)
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := req.Header.Get(RequestIDHeader)
		if !validRequestID(id) {
			id = newRequestID()
		}
		req = req.WithContext(ContextWithRequestID(req.Context(), id))
		w.Header().Set(RequestIDHeader, id)

		sw := &statusWriter{ResponseWriter: w}
		h.inflight.Inc()
		start := time.Now()
		next.ServeHTTP(sw, req)
		elapsed := time.Since(start)
		h.inflight.Dec()

		latency.Observe(elapsed.Seconds())
		requests.With(route, sw.codeText()).Inc()
		if h.log != nil {
			h.log.LogAttrs(req.Context(), slog.LevelInfo, "http request",
				slog.String("request_id", id),
				slog.String("method", req.Method),
				slog.String("route", route),
				slog.String("path", req.URL.Path),
				slog.Int("status", sw.code()),
				slog.Duration("elapsed", elapsed))
		}
	})
}

// latencyObserver resolves the per-route histogram once at wrap time
// so the per-request path is a pure Observe.
func latencyObserver(v *HistogramVec, route string) *Histogram {
	return v.With(route)
}

// statusWriter captures the response status code. It forwards Flush —
// the NDJSON streaming endpoints require the Flusher passthrough — and
// treats an unset code as 200, matching net/http's implicit
// WriteHeader.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Flush implements http.Flusher when the underlying writer does.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the wrapped writer so http.ResponseController can
// reach the connection's deadline controls (the streaming endpoints
// set per-batch write deadlines through the middleware).
func (w *statusWriter) Unwrap() http.ResponseWriter {
	return w.ResponseWriter
}

func (w *statusWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// codeText returns the status code as a label value. The handful of
// codes the mux actually emits are returned as interned constants so
// the per-request path does not allocate.
func (w *statusWriter) codeText() string {
	switch w.code() {
	case http.StatusOK:
		return "200"
	case http.StatusAccepted:
		return "202"
	case http.StatusNoContent:
		return "204"
	case http.StatusBadRequest:
		return "400"
	case http.StatusNotFound:
		return "404"
	case http.StatusConflict:
		return "409"
	case http.StatusInternalServerError:
		return "500"
	case http.StatusServiceUnavailable:
		return "503"
	default:
		return strconv.Itoa(w.code())
	}
}
