package service

import (
	"log/slog"
	"time"

	"adnet/internal/expt"
	"adnet/internal/obs"
	"adnet/internal/sim"
)

// metrics holds the service layer's instruments. Every Manager owns
// its own set, registered on the Config.Metrics registry — there is
// no package-global state, so parallel Managers (tests, in-process
// fleets) never share counters.
type metrics struct {
	httpm *obs.HTTPMetrics

	// Job lifecycle. Submissions are counted by how they resolved
	// (new/cached/joined/rejected); jobs and sweeps by the terminal
	// state they reached.
	runSubmissions *obs.CounterVec
	runJobs        *obs.CounterVec
	sweepJobs      *obs.CounterVec
	// sweepRejections counts POST /v1/sweeps turned away by the
	// concurrent-sweep gate (the 503s load-shedding emits).
	sweepRejections *obs.Counter
	sweepsActive    *obs.Gauge

	// Sweep execution. Cells are counted by status; durations and
	// utilization are folded in once per cell / once per grid.
	sweepCells  *obs.CounterVec
	cellSeconds *obs.Histogram
	// gridUtilization is busy-time / (workers × wall-clock) of one
	// locally executed grid — how well the engine fleet was kept fed.
	gridUtilization *obs.Histogram

	// Dynamics environments: runs executed under an adversarial
	// environment and the disruption they absorbed, folded once per
	// finished run/cell from the outcome — never from the round loop.
	dynRuns             *obs.Counter
	dynEnvActivations   *obs.Counter
	dynEnvDeactivations *obs.Counter
	dynCrashes          *obs.Counter
	dynRestarts         *obs.Counter

	// Engine digests, folded once per run by the run observer; the
	// round hot loop is never touched.
	engineRuns      *obs.Counter
	engineRounds    *obs.Histogram
	engineRoundSecs *obs.Histogram

	// Broadcast hub. Producer side: one encode per published frame
	// (latency histogram + counter by stream kind). Subscriber side:
	// live subscriber gauge, frames and bytes fanned out, subscribers
	// dropped by the backpressure policy (write deadline exceeded or
	// connection gone mid-batch).
	streamEncoded     *obs.CounterVec
	streamEncodeSecs  *obs.Histogram
	streamSubscribers *obs.GaugeVec
	streamFramesSent  *obs.CounterVec
	streamBytesSent   *obs.CounterVec
	streamDropped     *obs.CounterVec

	// Sweep journal (durability layer). Records/bytes count appends;
	// replayed cells/shards prove, at scrape time, that a resumed
	// sweep re-executed only its missing run keys; resumed sweeps
	// count journals picked up with prior work in them; torn records
	// count truncated final records tolerated during replay.
	journalRecords        *obs.CounterVec
	journalBytes          *obs.Counter
	journalReplayedCells  *obs.Counter
	journalReplayedShards *obs.Counter
	journalResumedSweeps  *obs.Counter
	journalTorn           *obs.Counter

	// Per-kind encode hooks handed to the frame logs at construction.
	roundsObs, cellsObs, packedObs func(time.Duration)
	// Per-kind fan-out-side series, resolved once for the handlers.
	roundsSub, cellsSub, topoSub, packedSub subscriberObs
}

// Stream kind label values: one per NDJSON endpoint format. streamTopo
// labels subscribers only: json topology is rendered, never encoded.
const (
	streamRounds     = "rounds"
	streamCells      = "cells"
	streamTopo       = "topology"
	streamTopoPacked = "topology_packed"
)

func newMetrics(reg *obs.Registry, logger *slog.Logger) *metrics {
	m := &metrics{
		httpm: obs.NewHTTPMetrics(reg, logger),
		runSubmissions: reg.CounterVec("adnet_run_submissions_total",
			"Run submissions by resolution: new (enqueued), cached (served from the result cache), joined (coalesced with an identical in-flight run), rejected (queue full).",
			"result"),
		runJobs: reg.CounterVec("adnet_run_jobs_total",
			"Run jobs that reached a terminal state, by state.",
			"state"),
		sweepJobs: reg.CounterVec("adnet_sweep_jobs_total",
			"Sweep jobs that reached a terminal state, by state.",
			"state"),
		sweepRejections: reg.Counter("adnet_sweep_gate_rejections_total",
			"Sweep submissions rejected by the concurrent-sweep gate."),
		sweepsActive: reg.Gauge("adnet_sweeps_active",
			"Sweep jobs currently admitted through the gate."),
		sweepCells: reg.CounterVec("adnet_sweep_cells_total",
			"Sweep cells finished, by status: ok (executed), cached (served without running), error.",
			"status"),
		cellSeconds: reg.Histogram("adnet_sweep_cell_duration_seconds",
			"Wall-clock duration of executed sweep cells (cache hits excluded).",
			obs.LatencyBuckets()),
		gridUtilization: reg.Histogram("adnet_sweep_grid_utilization_ratio",
			"Per-grid engine-fleet utilization: total cell busy time over workers times wall-clock.",
			[]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}),
		dynRuns: reg.Counter("adnet_dynamics_runs_total",
			"Runs executed under an adversarial dynamics environment (runs and sweep cells with a dynamics spec)."),
		dynEnvActivations: reg.Counter("adnet_dynamics_env_activations_total",
			"Edges activated by dynamics environments, summed over finished runs."),
		dynEnvDeactivations: reg.Counter("adnet_dynamics_env_deactivations_total",
			"Edges cut by dynamics environments, summed over finished runs."),
		dynCrashes: reg.Counter("adnet_dynamics_crashes_total",
			"Node crashes injected by dynamics environments, summed over finished runs."),
		dynRestarts: reg.Counter("adnet_dynamics_restarts_total",
			"Node restarts injected by dynamics environments, summed over finished runs."),
		engineRuns: reg.Counter("adnet_engine_runs_total",
			"Simulations executed to completion or failure."),
		engineRounds: reg.Histogram("adnet_engine_rounds_per_run",
			"Completed rounds per simulation run.",
			obs.ExpBuckets(1, 2, 16)),
		engineRoundSecs: reg.Histogram("adnet_engine_round_duration_seconds",
			"Mean wall-clock time per round, folded in once per run.",
			obs.ExpBuckets(1e-7, 4, 12)),
		streamEncoded: reg.CounterVec("adnet_stream_frames_encoded_total",
			"Frames encoded by the broadcast hub, by stream kind — one per published item regardless of subscriber count.",
			"stream"),
		streamEncodeSecs: reg.Histogram("adnet_stream_encode_duration_seconds",
			"Per-frame encode latency in the broadcast hub (all stream kinds).",
			obs.ExpBuckets(1e-7, 4, 12)),
		streamSubscribers: reg.GaugeVec("adnet_stream_subscribers",
			"NDJSON subscribers currently attached, by stream kind.",
			"stream"),
		streamFramesSent: reg.CounterVec("adnet_stream_frames_sent_total",
			"Encoded frames fanned out to subscribers, by stream kind.",
			"stream"),
		streamBytesSent: reg.CounterVec("adnet_stream_bytes_sent_total",
			"Encoded bytes fanned out to subscribers, by stream kind.",
			"stream"),
		streamDropped: reg.CounterVec("adnet_stream_subscribers_dropped_total",
			"Subscribers dropped by the backpressure policy (write deadline exceeded or write error), by stream kind.",
			"stream"),
		journalRecords: reg.CounterVec("adnet_journal_records_total",
			"Sweep journal records appended, by kind (header, cell, shard, done).",
			"kind"),
		journalBytes: reg.Counter("adnet_journal_appended_bytes_total",
			"Payload bytes appended to sweep journals (framing excluded)."),
		journalReplayedCells: reg.Counter("adnet_journal_replayed_cells_total",
			"Grid cells answered from a sweep journal's done-set instead of executing."),
		journalReplayedShards: reg.Counter("adnet_journal_replayed_shards_total",
			"Coordinator shards served from a sweep journal instead of re-dispatching."),
		journalResumedSweeps: reg.Counter("adnet_journal_resumed_sweeps_total",
			"Sweep jobs that picked up prior work from an incomplete journal."),
		journalTorn: reg.Counter("adnet_journal_torn_records_total",
			"Torn final journal records truncated and tolerated during replay."),
	}
	m.roundsObs = m.encodeObsFor(streamRounds)
	m.cellsObs = m.encodeObsFor(streamCells)
	m.packedObs = m.encodeObsFor(streamTopoPacked)
	m.roundsSub = m.subscriberObsFor(streamRounds)
	m.cellsSub = m.subscriberObsFor(streamCells)
	m.topoSub = m.subscriberObsFor(streamTopo)
	m.packedSub = m.subscriberObsFor(streamTopoPacked)
	return m
}

// encodeObsFor resolves one kind's series once so the per-frame path
// is a pure Add/Observe.
func (mt *metrics) encodeObsFor(kind string) func(time.Duration) {
	encoded := mt.streamEncoded.With(kind)
	encodeSecs := mt.streamEncodeSecs
	return func(d time.Duration) {
		encoded.Inc()
		encodeSecs.Observe(d.Seconds())
	}
}

// subscriberObs bundles the fan-out-side series for one stream kind,
// resolved once per connection by the streaming handlers.
type subscriberObs struct {
	subscribers *obs.Gauge
	frames      *obs.Counter
	bytes       *obs.Counter
	dropped     *obs.Counter
}

func (mt *metrics) subscriberObsFor(kind string) subscriberObs {
	return subscriberObs{
		subscribers: mt.streamSubscribers.With(kind),
		frames:      mt.streamFramesSent.With(kind),
		bytes:       mt.streamBytesSent.With(kind),
		dropped:     mt.streamDropped.With(kind),
	}
}

// registerManagerGauges binds scrape-time views of state the manager
// already tracks. Called once from NewManager, after the queue and
// cache exist.
func (m *Manager) registerManagerGauges(reg *obs.Registry) {
	reg.GaugeFunc("adnet_run_queue_depth",
		"Run jobs waiting for a worker.",
		func() float64 { return float64(len(m.queue)) })
	reg.GaugeFunc("adnet_run_queue_capacity",
		"Run queue capacity (QueueDepth).",
		func() float64 { return float64(cap(m.queue)) })
	reg.GaugeFunc("adnet_run_workers",
		"Size of the run worker pool.",
		func() float64 { return float64(m.cfg.Workers) })
	reg.GaugeFunc("adnet_jobs_tracked",
		"Run jobs in the table (live and retained).",
		func() float64 { return float64(len(m.runs.all())) })
	reg.GaugeFunc("adnet_sweeps_tracked",
		"Sweep jobs in the table (live and retained).",
		func() float64 { return float64(len(m.sweeps.all())) })
	reg.CounterFunc("adnet_runs_executed_total",
		"Simulations actually executed by this server (cache hits and dedup joins excluded).",
		func() float64 { return float64(m.runsExecuted.Load()) })
	reg.CounterFunc("adnet_cache_hits_total",
		"Result-cache hits.",
		func() float64 { _, hits, _ := m.cache.Stats(); return float64(hits) })
	reg.CounterFunc("adnet_cache_misses_total",
		"Result-cache misses.",
		func() float64 { _, _, misses := m.cache.Stats(); return float64(misses) })
	reg.GaugeFunc("adnet_cache_entries",
		"Result-cache entries resident.",
		func() float64 { size, _, _ := m.cache.Stats(); return float64(size) })
}

// observeRun is the sim.WithRunObserver hook shared by run jobs and
// locally executed sweep cells: one fold per run, after the loop.
func (mt *metrics) observeRun(s sim.RunSummary) {
	mt.engineRuns.Inc()
	mt.engineRounds.Observe(float64(s.Rounds))
	if s.Rounds > 0 {
		mt.engineRoundSecs.Observe(s.Duration.Seconds() / float64(s.Rounds))
	}
}

// observeDynamics folds one finished dynamics run's disruption totals.
func (mt *metrics) observeDynamics(out expt.Outcome) {
	mt.dynRuns.Inc()
	mt.dynEnvActivations.Add(int64(out.EnvActivations))
	mt.dynEnvDeactivations.Add(int64(out.EnvDeactivations))
	mt.dynCrashes.Add(int64(out.Crashes))
	mt.dynRestarts.Add(int64(out.Restarts))
}

// observeCell counts a finished cell and folds its cost in.
func (mt *metrics) observeCell(ran, fromCache bool, errText bool, dur float64) {
	switch {
	case errText:
		mt.sweepCells.With("error").Inc()
	case fromCache:
		mt.sweepCells.With("cached").Inc()
	default:
		mt.sweepCells.With("ok").Inc()
	}
	if ran {
		mt.cellSeconds.Observe(dur)
	}
}
