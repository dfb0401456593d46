package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adnet/internal/expt"
	"adnet/internal/fleet"
	"adnet/internal/obs"
	"adnet/internal/runkey"
	"adnet/internal/sim"
)

// Submission errors surfaced to the API layer.
var (
	ErrQueueFull  = errors.New("service: job queue full")
	ErrClosed     = errors.New("service: manager closed")
	ErrNotFound   = errors.New("service: no such job")
	ErrNotRunning = errors.New("service: job already finished")
)

// Config sizes the manager. Zero values pick the documented defaults.
type Config struct {
	// Workers is the number of concurrent simulations (default:
	// GOMAXPROCS). Each runs the engine sequentially, so the pool —
	// not per-run parallelism — is the service's unit of concurrency.
	Workers int
	// QueueDepth bounds jobs waiting for a worker (default 128);
	// submissions beyond it fail fast with ErrQueueFull.
	QueueDepth int
	// CacheSize is the LRU capacity in entries (default 512; 0 uses
	// the default, negative disables caching).
	CacheSize int
	// MaxN caps RunSpec.N (default DefaultMaxN).
	MaxN int
	// RunTimeLimit is the wall-clock budget per run (default 2m);
	// runs over budget — including individual sweep cells — are
	// canceled between rounds and fail. The centralized-euler
	// baseline runs no round loop, so it streams no rounds and cannot
	// be interrupted mid-computation.
	RunTimeLimit time.Duration
	// RetainJobs bounds how many finished jobs stay queryable
	// (default 1024): the oldest finished jobs are evicted from the
	// table as new ones finish. Live jobs are never evicted.
	RetainJobs int
	// SweepWorkers sizes the engine fleet of one sweep (default:
	// GOMAXPROCS). Each worker owns a reusable engine, so the fleet —
	// not per-run parallelism — is a sweep's unit of concurrency.
	SweepWorkers int
	// MaxSweepCells caps a single sweep's grid volume (default 1024;
	// negative disables the cap).
	MaxSweepCells int
	// MaxConcurrentSweeps bounds sweeps running at once (default 2);
	// further POST /v1/sweeps fail fast with ErrSweepBusy.
	MaxConcurrentSweeps int
	// SweepTimeLimit is the wall-clock budget for a whole sweep job
	// (default 10m); sweeps over budget are aborted between cells and
	// fail, with the cells finished so far retained.
	SweepTimeLimit time.Duration
	// RetainSweeps bounds how many finished sweep jobs stay queryable
	// (default 64). A retained sweep keeps its full cell stream in
	// memory, so the bound is deliberately tighter than RetainJobs.
	RetainSweeps int
	// StreamWriteTimeout is the per-write-batch deadline on the NDJSON
	// streaming endpoints (default 30s; negative disables). A
	// subscriber that cannot drain a batch within it is dropped — the
	// backpressure policy that keeps one stalled reader from pinning
	// connection buffers while the encode-once hub keeps every other
	// subscriber live.
	StreamWriteTimeout time.Duration
	// DataDir, when set, makes sweeps durable: every sweep job writes
	// a write-ahead journal under <DataDir>/sweeps — the spec at
	// submission, then one cell record per finished cell (a
	// coordinator journals each merged cell the same way). After a
	// crash, Recover replays the intact journals, rebuilds finished
	// outcomes into the result cache, and resubmits interrupted grids
	// so only their missing run keys re-execute. Empty disables
	// journaling (the pre-durability in-memory behavior).
	DataDir string
	// Fleet, when set, runs the manager in coordinator mode: sweep
	// grids are sharded across the coordinator's registered worker
	// servers (internal/fleet) instead of the local engine fleet, the
	// /v1/fleet/workers endpoints are mounted, and the aggregate
	// endpoint folds the merged cell stream like any other sweep's. Run
	// jobs still execute locally.
	Fleet *fleet.Coordinator
	// Metrics receives the manager's instruments and is served at
	// GET /metrics (default: a fresh private registry). A server
	// sharing one registry between its fleet coordinator and manager
	// passes the same instance to both configs.
	Metrics *obs.Registry
	// Logger receives structured lifecycle and access logs (default:
	// discard). Records logged with a request-scoped context carry the
	// request ID automatically.
	Logger *slog.Logger
}

// WithDefaults gives each unset field its documented default. It is
// the one place the defaults are written; adnet-server's flags read it.
func (c Config) WithDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.CacheSize == 0 {
		c.CacheSize = 512
	}
	if c.MaxN <= 0 {
		c.MaxN = DefaultMaxN
	}
	if c.RunTimeLimit <= 0 {
		c.RunTimeLimit = 2 * time.Minute
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 1024
	}
	if c.SweepWorkers <= 0 {
		c.SweepWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxSweepCells == 0 {
		c.MaxSweepCells = 1024
	}
	if c.MaxConcurrentSweeps <= 0 {
		c.MaxConcurrentSweeps = 2
	}
	if c.SweepTimeLimit <= 0 {
		c.SweepTimeLimit = 10 * time.Minute
	}
	if c.RetainSweeps <= 0 {
		c.RetainSweeps = 64
	}
	if c.StreamWriteTimeout == 0 {
		c.StreamWriteTimeout = 30 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// Job tracks one submitted RunSpec through its lifecycle.
type Job struct {
	ID   string
	Spec RunSpec
	// FromCache marks jobs answered by the result cache without
	// executing a simulation: their streams are the executing job's.
	FromCache bool

	*replay
	lifecycle
	outcome *expt.Outcome
}

// JobStatus is the JSON-facing snapshot of a Job.
type JobStatus struct {
	ID        string        `json:"id"`
	Spec      RunSpec       `json:"spec"`
	State     JobState      `json:"state"`
	FromCache bool          `json:"from_cache"`
	Outcome   *expt.Outcome `json:"outcome,omitempty"`
	jobTimes
	Rounds int `json:"rounds_streamed"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:        j.ID,
		Spec:      j.Spec,
		State:     j.state,
		FromCache: j.FromCache,
		jobTimes:  j.times,
		Rounds:    j.rounds.Len(),
	}
	if j.outcome != nil {
		o := *j.outcome
		st.Outcome = &o
	}
	return st
}

// Manager owns the worker pool, the job table, the sweep-job table,
// the in-flight dedup index, the result cache, and the sweep gate.
type Manager struct {
	cfg       Config
	cache     *resultCache
	queue     chan *Job
	wg        sync.WaitGroup
	sweepWG   sync.WaitGroup
	sweepGate chan struct{}

	// runs and sweeps keep both job kinds queryable by ID, finished
	// ones up to RetainJobs / RetainSweeps. A retained sweep keeps its
	// full cell stream in memory, hence the separate, tighter bound.
	runs   *jobTable[*Job, JobStatus]
	sweeps *jobTable[*SweepJob, SweepStatus]

	mu     sync.Mutex
	inWork map[string]*Job // spec key → live (queued/running) job
	// openJournals tracks which sweep spec keys currently own their
	// on-disk journal; a second concurrent sweep over the same grid
	// runs unjournaled instead of interleaving writers in one file.
	openJournals map[string]struct{}
	closed       bool

	seq          atomic.Int64
	runsExecuted atomic.Int64

	metrics *metrics
	logger  *slog.Logger
	start   time.Time
}

// NewManager starts cfg.Workers workers; callers must Close it.
func NewManager(cfg Config) *Manager {
	cfg = cfg.WithDefaults()
	m := &Manager{
		cfg:          cfg,
		cache:        newResultCache(cfg.CacheSize),
		queue:        make(chan *Job, cfg.QueueDepth),
		runs:         newJobTable[*Job, JobStatus](cfg.RetainJobs),
		sweeps:       newJobTable[*SweepJob, SweepStatus](cfg.RetainSweeps),
		inWork:       make(map[string]*Job),
		openJournals: make(map[string]struct{}),
		sweepGate:    make(chan struct{}, cfg.MaxConcurrentSweeps),
		logger:       cfg.Logger,
		start:        time.Now(),
	}
	m.metrics = newMetrics(cfg.Metrics, cfg.Logger)
	m.registerManagerGauges(cfg.Metrics)
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Registry exposes the manager's metrics registry — the one
// GET /metrics serves.
func (m *Manager) Registry() *obs.Registry { return m.cfg.Metrics }

// Close stops accepting submissions, cancels live sweep jobs, and
// waits for in-flight work. Queued run jobs still run (to drop them,
// Cancel first); sweeps are canceled rather than drained because a
// grid can legally run for SweepTimeLimit — graceful shutdown must
// not stall behind it, and a sweep's in-memory cells die with the
// process anyway.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	for _, j := range m.sweeps.all() {
		_ = j.requestCancel() // already-finished sweeps need none
	}
	close(m.queue)
	m.wg.Wait()
	m.sweepWG.Wait()
}

// isClosed reports whether Close has begun. Sweep journals consult it
// at terminal time: a shutdown-canceled sweep writes no terminal
// record, so the next startup resumes it like a crash.
func (m *Manager) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Submit validates spec and returns a job for it: a pre-completed one
// on a cache hit (cached=true), the already-live job when an
// identical spec is in flight, or a freshly enqueued one. It fails
// fast with ErrQueueFull when the queue is at capacity.
func (m *Manager) Submit(spec RunSpec) (job *Job, cached bool, err error) {
	if err := validateSweep(spec.Grid(), m.cfg.MaxN, 0); err != nil {
		return nil, false, fmt.Errorf("service: invalid spec: %w", err)
	}
	key := spec.Key()
	if entry, ok := m.cache.Get(key, true); ok {
		j := m.newJob(spec, entry.replay)
		j.outcome = &entry.Outcome
		j.finishLocked(StateDone, nil) // not shared yet: no lock needed
		m.runs.add(j.ID, j)
		m.runs.retire(j.ID)
		m.metrics.runSubmissions.With("cached").Inc()
		return j, true, nil
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, false, ErrClosed
	}
	// Join an identical in-flight spec — unless it has been canceled
	// (the new submitter deserves a fresh run, not someone else's
	// cancellation) or has already reached a terminal state (a finished
	// job can linger in inWork until its worker's deferred cleanup
	// runs; joining it would skip a requested re-execution).
	if live, ok := m.inWork[key]; ok && !live.canceled() && !live.State().terminal() {
		m.mu.Unlock()
		m.metrics.runSubmissions.With("joined").Inc()
		return live, false, nil
	}
	j := m.newJob(spec, nil)
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		m.metrics.runSubmissions.With("rejected").Inc()
		return nil, false, ErrQueueFull
	}
	m.runs.add(j.ID, j)
	m.inWork[key] = j
	m.mu.Unlock()
	m.metrics.runSubmissions.With("new").Inc()
	return j, false, nil
}

// liveJob returns the queued/running, non-canceled job for a spec
// key, or nil. Sweeps use it to coalesce cells with in-flight runs.
func (m *Manager) liveJob(key string) *Job {
	m.mu.Lock()
	j, ok := m.inWork[key]
	m.mu.Unlock()
	if !ok || j.canceled() || j.State().terminal() {
		return nil
	}
	return j
}

// Get looks a job up by ID.
func (m *Manager) Get(id string) (*Job, bool) { return m.runs.get(id) }

// Jobs snapshots every known job's status, in no particular order —
// callers sort as needed.
func (m *Manager) Jobs() []JobStatus { return m.runs.statuses() }

// Cancel aborts a queued or running job. Terminal jobs return
// ErrNotRunning.
func (m *Manager) Cancel(id string) error { return m.runs.cancel(id) }

// Stats is the healthz payload. The fleet fields are always present —
// a coordinator with zero healthy workers must scrape as 0, not as a
// missing key: Coordinator marks the mode, FleetWorkers counts
// registered workers, FleetHealthy those healthy as of their last
// probe (both 0 on a non-coordinator).
type Stats struct {
	Workers      int   `json:"workers"`
	QueueDepth   int   `json:"queue_depth"`
	Queued       int   `json:"queued"`
	Jobs         int   `json:"jobs"`
	Sweeps       int   `json:"sweeps"`
	RunsExecuted int64 `json:"runs_executed"`
	CacheSize    int   `json:"cache_size"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	Coordinator  bool  `json:"coordinator"`
	FleetWorkers int   `json:"fleet_workers"`
	FleetHealthy int   `json:"fleet_healthy"`
	// StreamBytes is the encoded NDJSON frame bytes held by the frame
	// logs of every tracked job and sweep and every cached run (a shared
	// log counts once) — the server's whole streaming memory footprint,
	// and exactly what /rounds, /topology?format=packed and /cells serve
	// for them; a json topology drain is rendered, and larger.
	StreamBytes int64 `json:"stream_bytes"`
	// UptimeSeconds and GoVersion let probes distinguish a restarted
	// server from a live one and audit the deployed toolchain.
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
}

// Stats reports live counters.
func (m *Manager) Stats() Stats {
	size, hits, misses := m.cache.Stats()
	runs, sweeps := m.runs.all(), m.sweeps.all()
	var streamBytes int64
	held := m.cache.replays()
	for _, j := range runs {
		held[j.replay] = struct{}{}
	}
	for rp := range held {
		streamBytes += rp.FrameBytes()
	}
	for _, j := range sweeps {
		streamBytes += j.cells.FrameBytes()
	}
	st := Stats{
		Workers:       m.cfg.Workers,
		QueueDepth:    m.cfg.QueueDepth,
		Queued:        len(m.queue),
		Jobs:          len(runs),
		Sweeps:        len(sweeps),
		RunsExecuted:  m.runsExecuted.Load(),
		CacheSize:     size,
		CacheHits:     hits,
		CacheMisses:   misses,
		StreamBytes:   streamBytes,
		UptimeSeconds: time.Since(m.start).Seconds(),
		GoVersion:     runtime.Version(),
	}
	if m.cfg.Fleet != nil {
		st.Coordinator = true
		st.FleetWorkers, st.FleetHealthy = m.cfg.Fleet.Counts()
	}
	return st
}

// Fleet returns the coordinator when the manager runs in coordinator
// mode, nil otherwise.
func (m *Manager) Fleet() *fleet.Coordinator { return m.cfg.Fleet }

// RunsExecuted counts simulations actually executed (cache hits and
// dedup joins excluded) — the observable for "no re-simulation".
func (m *Manager) RunsExecuted() int64 { return m.runsExecuted.Load() }

// newJob builds a queued job over cached, a finished run's frame logs,
// or — when cached is nil — over fresh ones for it to publish to.
func (m *Manager) newJob(spec RunSpec, cached *replay) *Job {
	rp := cached
	if rp == nil {
		rp = &replay{
			rounds: newFrameLog(m.metrics.roundsObs),
			topo:   newFrameLog(m.metrics.packedObs),
		}
	}
	return &Job{
		ID:        fmt.Sprintf("run-%06d-%s", m.seq.Add(1), runkey.ShortHash(spec.Key())),
		Spec:      spec,
		FromCache: cached != nil,
		replay:    rp,
		lifecycle: queued(context.Background()),
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.execute(j)
	}
}

func (m *Manager) execute(j *Job) {
	key := j.Spec.Key()
	defer func() {
		m.mu.Lock()
		if m.inWork[key] == j {
			delete(m.inWork, key)
		}
		m.mu.Unlock()
		j.replay.close()
		m.runs.retire(j.ID)
	}()

	if j.canceled() {
		j.mu.Lock()
		j.finishLocked(StateCanceled, context.Canceled)
		j.mu.Unlock()
		m.metrics.runJobs.With(string(StateCanceled)).Inc()
		return
	}
	j.setState(StateRunning)

	ctx, cancel := context.WithTimeout(j.ctx, m.cfg.RunTimeLimit)
	defer cancel()

	opts := []sim.Option{
		sim.WithStartHook(func(ev sim.StartEvent) { j.publishHeader(ev.N, ev.Edges) }),
		sim.WithDeltaHook(j.publishDelta),
		sim.WithCancel(ctx.Done()),
		sim.WithRunObserver(m.metrics.observeRun),
	}
	m.runsExecuted.Add(1)
	req := j.Spec.Request()
	req.SimOpts = append(opts, req.SimOpts...)
	out, err := expt.Execute(req)
	if err == nil && j.Spec.Dynamics != nil {
		m.metrics.observeDynamics(out)
	}

	state, jobErr := j.outcomeOf(err, "run", m.cfg.RunTimeLimit)
	if state == StateDone {
		// The outcome and the cache entry land before the terminal
		// state does: whoever observes done finds both.
		j.mu.Lock()
		j.outcome = &out
		j.mu.Unlock()
		m.cache.Add(key, cacheEntry{Outcome: out, replay: j.replay})
	}
	j.mu.Lock()
	j.finishLocked(state, jobErr)
	j.mu.Unlock()
	m.metrics.runJobs.With(string(state)).Inc()
	if state == StateFailed {
		m.logger.Error("run failed",
			slog.String("job_id", j.ID),
			slog.String("error", err.Error()))
	}
}
