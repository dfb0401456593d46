package fleet

import "adnet/internal/obs"

// fleetMetrics holds the coordinator's instruments. Every Coordinator
// owns its own set, registered on Config.Metrics — no package-global
// state, so parallel coordinators (tests) never share counters.
type fleetMetrics struct {
	// Dispatch outcomes. Dispatched counts every attempt posted to a
	// worker; redispatched counts shards handed to another worker after
	// theirs died mid-shard; busy retries are the recovery that costs
	// neither an attempt nor worker health.
	shardsDispatched   *obs.Counter
	shardsRedispatched *obs.Counter
	busyRetries        *obs.Counter

	// healthTransitions counts state *changes* only — a worker probed
	// healthy a hundred times in a row moves the counter once.
	healthTransitions *obs.CounterVec

	// shardSeconds folds the wall-clock cost of each completed shard,
	// labeled by worker ID (bounded: registration is explicit).
	shardSeconds *obs.HistogramVec
}

// newFleetMetrics registers the coordinator's instruments, including
// scrape-time gauges over the registry counts.
func newFleetMetrics(reg *obs.Registry, c *Coordinator) *fleetMetrics {
	reg.GaugeFunc("adnet_fleet_workers",
		"Workers in the registry.",
		func() float64 { w, _ := c.Counts(); return float64(w) })
	reg.GaugeFunc("adnet_fleet_workers_healthy",
		"Registered workers healthy as of their last probe.",
		func() float64 { _, h := c.Counts(); return float64(h) })
	return &fleetMetrics{
		shardsDispatched: reg.Counter("adnet_fleet_shards_dispatched_total",
			"Shard dispatch attempts posted to workers (re-dispatches and retries included)."),
		shardsRedispatched: reg.Counter("adnet_fleet_shards_redispatched_total",
			"Shards re-queued for another worker after theirs broke mid-shard."),
		busyRetries: reg.Counter("adnet_fleet_busy_retries_total",
			"Dispatches bounced by a worker's sweep gate (503) and requeued without penalty."),
		healthTransitions: reg.CounterVec("adnet_fleet_worker_health_transitions_total",
			"Worker health state changes, by the state entered.",
			"to"),
		shardSeconds: reg.HistogramVec("adnet_fleet_shard_duration_seconds",
			"Wall-clock duration of successfully completed shard dispatches, by worker ID.",
			obs.LatencyBuckets(),
			"worker"),
	}
}

// noteHealthTransition records a worker health flip. Called from
// worker.setHealth with the worker lock held, so the counter moves in
// the same order the registry state does.
func (fm *fleetMetrics) noteHealthTransition(healthy bool) {
	if healthy {
		fm.healthTransitions.With("healthy").Inc()
	} else {
		fm.healthTransitions.With("unhealthy").Inc()
	}
}
