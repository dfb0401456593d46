package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestWrapCountsRequestsAndAssignsID(t *testing.T) {
	reg := NewRegistry()
	hm := NewHTTPMetrics(reg, nil)
	var seenID string
	h := hm.Wrap("GET /v1/runs/{id}", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seenID = RequestIDFromContext(r.Context())
		w.WriteHeader(http.StatusNotFound)
	}))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/runs/j1", nil))

	if seenID == "" {
		t.Error("handler saw no request ID in context")
	}
	if got := rec.Header().Get(RequestIDHeader); got != seenID {
		t.Errorf("response header ID = %q, want %q", got, seenID)
	}
	if v := hm.requests.With("GET /v1/runs/{id}", "404").Value(); v != 1 {
		t.Errorf("request counter = %d, want 1", v)
	}
	if c := hm.latency.With("GET /v1/runs/{id}").Count(); c != 1 {
		t.Errorf("latency observations = %d, want 1", c)
	}
	if v := hm.inflight.Value(); v != 0 {
		t.Errorf("inflight = %d after request, want 0", v)
	}
}

func TestWrapReusesInboundRequestID(t *testing.T) {
	reg := NewRegistry()
	h := NewHTTPMetrics(reg, nil).Wrap("POST /v1/sweeps",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	req := httptest.NewRequest("POST", "/v1/sweeps", nil)
	req.Header.Set(RequestIDHeader, "abc123")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(RequestIDHeader); got != "abc123" {
		t.Errorf("inbound ID not reused: got %q", got)
	}
}

func TestWrapReplacesInvalidInboundRequestID(t *testing.T) {
	reg := NewRegistry()
	var seenID string
	h := NewHTTPMetrics(reg, nil).Wrap("POST /v1/sweeps",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			seenID = RequestIDFromContext(r.Context())
		}))
	for _, inbound := range []string{
		strings.Repeat("a", maxRequestIDLen+1),
		"two words",
		`quote"d`,
	} {
		req := httptest.NewRequest("POST", "/v1/sweeps", nil)
		req.Header.Set(RequestIDHeader, inbound)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		got := rec.Header().Get(RequestIDHeader)
		if got == inbound || len(got) != 16 || seenID != got {
			t.Errorf("inbound %q: echoed %q, context %q; want one fresh 16-hex ID", inbound, got, seenID)
		}
	}
	// The longest accepted ID, with every allowed punctuation mark.
	inbound := strings.Repeat("Az09", maxRequestIDLen/4-1) + "a._-"
	req := httptest.NewRequest("POST", "/v1/sweeps", nil)
	req.Header.Set(RequestIDHeader, inbound)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(RequestIDHeader); got != inbound {
		t.Errorf("valid %d-character ID not reused: got %q", len(inbound), got)
	}
}

func TestWrapDefaultsTo200(t *testing.T) {
	reg := NewRegistry()
	hm := NewHTTPMetrics(reg, nil)
	h := hm.Wrap("GET /healthz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok")) // implicit 200
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))
	if v := hm.requests.With("GET /healthz", "200").Value(); v != 1 {
		t.Errorf("implicit 200 not counted: %d", v)
	}
}

// TestStatusWriterKeepsFlusher guards the NDJSON streaming endpoints:
// the wrapper must still satisfy http.Flusher.
func TestStatusWriterKeepsFlusher(t *testing.T) {
	reg := NewRegistry()
	flushed := false
	h := NewHTTPMetrics(reg, nil).Wrap("GET /v1/runs/{id}/rounds",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			f, ok := w.(http.Flusher)
			if !ok {
				t.Fatal("wrapped writer lost http.Flusher")
			}
			f.Flush()
			flushed = true
		}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/runs/j1/rounds", nil))
	if !flushed {
		t.Error("Flush not reached")
	}
}

func TestSetRequestIDHeader(t *testing.T) {
	req := httptest.NewRequest("GET", "http://worker/healthz", nil)
	req = req.WithContext(ContextWithRequestID(req.Context(), "deadbeef"))
	SetRequestIDHeader(req)
	if got := req.Header.Get(RequestIDHeader); got != "deadbeef" {
		t.Errorf("outbound header = %q, want deadbeef", got)
	}

	// No ID in context → header untouched.
	bare := httptest.NewRequest("GET", "http://worker/healthz", nil)
	SetRequestIDHeader(bare)
	if got := bare.Header.Get(RequestIDHeader); got != "" {
		t.Errorf("header set without context ID: %q", got)
	}
}

func TestNewRequestIDShape(t *testing.T) {
	a, b := newRequestID(), newRequestID()
	if len(a) != 16 || a == b {
		t.Errorf("request IDs a=%q b=%q: want distinct 16-hex strings", a, b)
	}
}

func TestLoggerAddsRequestID(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "json")
	if err != nil {
		t.Fatal(err)
	}
	ctx := ContextWithRequestID(context.Background(), "feedface")
	logger.InfoContext(ctx, "sweep accepted", "sweep_id", "s1")

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, buf.String())
	}
	if rec["request_id"] != "feedface" {
		t.Errorf("request_id = %v, want feedface in %s", rec["request_id"], buf.String())
	}
	if rec["sweep_id"] != "s1" {
		t.Errorf("sweep_id = %v, want s1", rec["sweep_id"])
	}

	// Without a context ID, no request_id attribute appears.
	buf.Reset()
	logger.Info("plain line")
	if strings.Contains(buf.String(), "request_id") {
		t.Errorf("request_id attached without context: %s", buf.String())
	}
}

func TestNewLoggerRejectsUnknownFormat(t *testing.T) {
	if _, err := NewLogger(&bytes.Buffer{}, "yaml"); err == nil {
		t.Error("expected error for unknown format")
	}
}

func TestMetricsHandlerContentType(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("adnet_test_total", "t").Inc()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if _, err := ParseExposition(rec.Body); err != nil {
		t.Errorf("handler output does not parse: %v", err)
	}
}
