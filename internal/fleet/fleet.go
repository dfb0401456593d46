// Package fleet is the coordinator side of the distributed sweep
// fabric: it turns a farm of independent adnet-server processes into
// one logical sweep executor. The coordinator keeps a registry of
// worker servers (health-checked over their /healthz endpoints),
// partitions a sweep grid into deterministic, group-aligned shards
// (plan.go), dispatches each shard to a worker over the ordinary
// /v1/sweeps HTTP API and reads its NDJSON cell stream once
// (dispatch.go), checking each cell line against the grid, and
// re-emits the shards whole, in canonical grid order, as one merged
// sequence of expt.CellResults whose fold (expt.Aggregate) is
// byte-identical to the aggregate of a single-process run of the same
// grid (run.go).
//
// Failure semantics: a shard reaches the merger only after the
// worker's trailing summary confirms a completed sweep, so a dispatch
// that breaks, comes up short, times out or is canceled mid-shard
// contributes nothing: the shard is re-queued and uses up one of its
// dispatch attempts, and the worker's /healthz decides whether it
// stays in rotation — a live worker re-runs the shard from its result
// cache, a dead one is marked unhealthy and its shard counts as
// re-dispatched. A worker that merely rejects the dispatch with its
// sweep gate (503) keeps its health and costs no attempt; the shard
// retries with backoff. The sweep fails only when a shard exhausts its
// dispatch attempts or no healthy worker remains.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"time"

	"adnet/internal/obs"
)

// Registration and execution errors surfaced to the service layer.
var (
	// ErrNoWorkers fails a sweep that has no healthy worker to run on.
	ErrNoWorkers = errors.New("fleet: no healthy workers registered")
	// ErrDuplicateWorker rejects re-registration of a known worker URL.
	ErrDuplicateWorker = errors.New("fleet: worker already registered")
	// ErrInvalidWorkerURL rejects registration of a malformed base URL.
	ErrInvalidWorkerURL = errors.New("fleet: worker URL must be absolute http(s)")
)

// Dispatch tuning. Every worker request goes through
// http.DefaultClient, which has no overall timeout — a shard's cell
// stream legally stays open for minutes — so non-streaming calls are
// bounded by per-request contexts instead.
const (
	// healthTimeout bounds one /healthz probe.
	healthTimeout = 3 * time.Second
	// shardAttempts is how many dispatches one shard may consume —
	// across different workers — before the whole sweep fails.
	shardAttempts = 3
	// retryBackoff paces the re-dispatch of a shard a busy worker's
	// sweep gate bounced.
	retryBackoff = 200 * time.Millisecond
)

// Config wires the coordinator to its process. Zero values pick the
// documented defaults.
type Config struct {
	// Metrics receives the coordinator's instruments (shard dispatch
	// counters, worker health transitions, per-worker shard latency).
	// Nil gets a private registry, so an unwired coordinator still
	// counts — it just exports nowhere.
	Metrics *obs.Registry
	// Logger carries the coordinator's structured log. Nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// Coordinator owns the worker registry and executes sweep grids across
// it. All methods are safe for concurrent use.
type Coordinator struct {
	cfg     Config
	metrics *fleetMetrics

	mu      sync.Mutex
	workers []*worker
	seq     int
}

// New returns a coordinator with an empty registry.
func New(cfg Config) *Coordinator {
	c := &Coordinator{cfg: cfg.withDefaults()}
	c.metrics = newFleetMetrics(c.cfg.Metrics, c)
	return c
}

// worker is one registered adnet-server process.
type worker struct {
	id  string
	url string
	seq int // registration order; id renders it
	// obs counts this worker's health transitions; set once at
	// creation, before the worker is shared.
	obs *fleetMetrics

	mu         sync.Mutex
	healthy    bool
	lastProbe  time.Time
	lastErr    string
	shardsDone int
}

// WorkerStatus is the JSON-facing snapshot of a registered worker.
type WorkerStatus struct {
	ID         string    `json:"id"`
	URL        string    `json:"url"`
	Healthy    bool      `json:"healthy"`
	LastProbe  time.Time `json:"last_probe"`
	Error      string    `json:"error,omitempty"`
	ShardsDone int       `json:"shards_done"`
}

func (w *worker) status() WorkerStatus {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WorkerStatus{
		ID:         w.id,
		URL:        w.url,
		Healthy:    w.healthy,
		LastProbe:  w.lastProbe,
		Error:      w.lastErr,
		ShardsDone: w.shardsDone,
	}
}

func (w *worker) setHealth(healthy bool, errText string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.healthy != healthy {
		w.obs.noteHealthTransition(healthy)
	}
	w.healthy = healthy
	w.lastErr = errText
	w.lastProbe = time.Now()
}

func (w *worker) isHealthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy
}

func (w *worker) noteShardDone() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.shardsDone++
}

// Register adds a worker server by base URL after a successful health
// probe; an unreachable worker is not registered. The URL is
// normalized (trailing slash stripped) and must be absolute http(s).
// Registering a URL twice returns ErrDuplicateWorker alongside the
// existing worker's freshly probed status.
func (c *Coordinator) Register(ctx context.Context, rawURL string) (WorkerStatus, error) {
	u, err := url.Parse(rawURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return WorkerStatus{}, fmt.Errorf("%w: %q", ErrInvalidWorkerURL, rawURL)
	}
	base := u.String()
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}

	c.mu.Lock()
	for _, w := range c.workers {
		if w.url == base {
			c.mu.Unlock()
			c.probe(ctx, w)
			return w.status(), ErrDuplicateWorker
		}
	}
	c.seq++
	w := &worker{id: fmt.Sprintf("worker-%03d", c.seq), url: base, seq: c.seq, obs: c.metrics}
	c.mu.Unlock()

	if ok := c.probe(ctx, w); !ok {
		return w.status(), fmt.Errorf("fleet: worker %s failed its health probe: %s", base, w.status().Error)
	}
	c.mu.Lock()
	// Re-check: a concurrent Register for the same URL may have won.
	for _, existing := range c.workers {
		if existing.url == base {
			c.mu.Unlock()
			return existing.status(), ErrDuplicateWorker
		}
	}
	c.workers = append(c.workers, w)
	c.mu.Unlock()
	c.cfg.Logger.InfoContext(ctx, "fleet worker registered",
		slog.String("worker", w.id), slog.String("url", base))
	return w.status(), nil
}

// Workers re-probes every registered worker — concurrently, so a
// registry full of unreachable workers costs one healthTimeout, not
// one per worker — and returns their statuses in registration order.
func (c *Coordinator) Workers(ctx context.Context) []WorkerStatus {
	ws := c.snapshot()
	c.probeAll(ctx, ws)
	slices.SortFunc(ws, func(a, b *worker) int { return a.seq - b.seq })
	out := make([]WorkerStatus, len(ws))
	for i, w := range ws {
		out[i] = w.status()
	}
	return out
}

// probeAll probes the given workers concurrently.
func (c *Coordinator) probeAll(ctx context.Context, ws []*worker) {
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			c.probe(ctx, w)
		}(w)
	}
	wg.Wait()
}

// Counts returns (registered, healthy-as-of-last-probe) worker counts
// without probing — the cheap form behind the coordinator's healthz
// counters.
func (c *Coordinator) Counts() (workers, healthy int) {
	for _, w := range c.snapshot() {
		workers++
		if w.isHealthy() {
			healthy++
		}
	}
	return workers, healthy
}

func (c *Coordinator) snapshot() []*worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*worker(nil), c.workers...)
}

// probe hits the worker's /healthz once, records the result, and
// reports health. The probe detaches from the caller's cancellation
// (keeping only its own healthTimeout): recorded health must reflect
// the worker, never the patience of whichever client happened to
// trigger the probe — a scraper disconnecting from GET
// /v1/fleet/workers must not poison the registry. A target whose
// healthz identifies it as a coordinator is rejected: fleets do not
// nest, and dispatching a shard to another coordinator would recurse.
func (c *Coordinator) probe(ctx context.Context, w *worker) bool {
	pctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), healthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, w.url+"/healthz", nil)
	if err != nil {
		w.setHealth(false, err.Error())
		return false
	}
	obs.SetRequestIDHeader(req)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		w.setHealth(false, err.Error())
		return false
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		w.setHealth(false, fmt.Sprintf("healthz returned %d", resp.StatusCode))
		return false
	}
	var health struct {
		Status string `json:"status"`
		Stats  struct {
			Coordinator bool `json:"coordinator"`
		} `json:"stats"`
	}
	// Any 200 is not enough: the body must be an adnet-server healthz,
	// or shard dispatches to some unrelated service would fail only
	// mid-sweep instead of at registration.
	if json.Unmarshal(body, &health) != nil || health.Status != "ok" {
		w.setHealth(false, "healthz response is not an adnet-server worker")
		return false
	}
	if health.Stats.Coordinator {
		w.setHealth(false, "target is a coordinator, not a worker (fleets do not nest)")
		return false
	}
	w.setHealth(true, "")
	return true
}

// healthyWorkers probes the registry (concurrently) and returns the
// workers that answered.
func (c *Coordinator) healthyWorkers(ctx context.Context) []*worker {
	ws := c.snapshot()
	c.probeAll(ctx, ws)
	var out []*worker
	for _, w := range ws {
		if w.isHealthy() {
			out = append(out, w)
		}
	}
	return out
}
