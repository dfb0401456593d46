package main

import "slices"

// Workload names, as BENCHMARK.json declares them.
const (
	wStarLarge   = "star-large"
	wFloodLine   = "flood-line"
	wWreathGrid  = "wreath-grid"
	wServeRuns   = "serve-runs"
	wSweepSingle = "sweep-single"
	wSweepFleet  = "sweep-fleet"
)

// workloadDef is one catalogue entry: the name BENCHMARK.json and the
// README use, and the function that runs it.
type workloadDef struct {
	name string
	run  func(*config) (*result, error)
}

// workloads is the catalogue in the order the driver runs it.
var workloads = []workloadDef{
	{wStarLarge, runStarLarge},
	{wFloodLine, runFloodLine},
	{wWreathGrid, runWreathGrid},
	{wServeRuns, runServeRuns},
	{wSweepSingle, runSweepSingle},
	{wSweepFleet, runSweepFleet},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef declares one metric: its name and unit exactly as
// BENCHMARK.json lists them (TestCatalogueMatchesBenchmarkJSON holds
// the two together), and the workloads whose run measures it. Every
// run reports every metric of its mode — the contract BENCHMARK.json
// is written to — so a per-layer metric reads 0 on a workload where
// its layer does no work (on == nil means measured everywhere).
type metricDef struct {
	name, unit string
	on         []string
}

func (m metricDef) measuredOn(workload string) bool {
	return m.on == nil || slices.Contains(m.on, workload)
}

// endToEnd are the metrics of an untraced run, taken at the caller:
// the library caller for the first three workloads, the HTTP client
// for the last three.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "op_ms_p50", unit: "ms"},
	{name: "cells_per_s", unit: "1/s"},
	{name: "ns_per_node_round", unit: "ns"},
	{name: "peak_rss_mb", unit: "MB"},
}

var (
	onHTTP   = []string{wServeRuns, wSweepSingle, wSweepFleet}
	onServe  = []string{wServeRuns}
	onSweeps = []string{wSweepSingle, wSweepFleet}
	onFleet  = []string{wSweepFleet}
)

// perLayer are the metrics of a traced run, named layer.metric after
// the module whose public functions or exported counters they time.
var perLayer = []metricDef{
	{name: "graph.build_ms", unit: "ms"},
	{name: "graph.has_edge_ns", unit: "ns"},
	{name: "graph.edit_ns", unit: "ns"},
	{name: "graph.common_neighbor_ns", unit: "ns"},
	{name: "graph.bfs_ms", unit: "ms"},

	{name: "temporal.reset_ms", unit: "ms"},
	{name: "temporal.apply_ms", unit: "ms"},
	{name: "temporal.apply_ns_per_edit", unit: "ns"},
	{name: "temporal.edits", unit: "count"},
	{name: "temporal.apply_share", unit: "ratio"},

	{name: "sim.reset_ms", unit: "ms"},
	{name: "sim.run_ms", unit: "ms"},
	{name: "sim.rounds", unit: "count"},
	{name: "sim.messages", unit: "count"},
	{name: "sim.round_us_p50", unit: "us"},
	{name: "sim.round_us_max", unit: "us"},
	{name: "sim.quiet_round_share", unit: "ratio"},
	{name: "sim.quiet_round_us_p50", unit: "us"},
	{name: "sim.idle_ns_per_node_round", unit: "ns"},
	{name: "sim.deliver_ns_per_msg", unit: "ns"},
	{name: "sim.par_run_ms", unit: "ms"},
	{name: "sim.par_efficiency", unit: "ratio"},
	{name: "sim.par_speedup", unit: "ratio"},

	{name: "core.self_ms", unit: "ms"},
	{name: "baseline.self_ms", unit: "ms"},
	{name: "baseline.clique_n256_ms", unit: "ms"},

	{name: "expt.execute_ms", unit: "ms"},
	{name: "expt.overhead_ms", unit: "ms"},
	{name: "expt.alloc_mb_per_op", unit: "MB"},
	{name: "expt.fresh_engine_penalty_ms", unit: "ms"},
	{name: "expt.sweep_cells_per_s_w1", unit: "1/s"},
	{name: "expt.sweep_scaling", unit: "ratio"},
	{name: "expt.aggregate_ms", unit: "ms"},

	{name: "service.submit_ms_p50", unit: "ms", on: onHTTP},
	{name: "service.encode_us_per_frame", unit: "us", on: onHTTP},
	{name: "service.wire_bytes_per_run", unit: "B", on: onServe},
	{name: "service.first_frame_ms_p50", unit: "ms", on: onHTTP},
	{name: "service.first_frame_ms_p99", unit: "ms", on: onServe},
	{name: "service.done_ms_p50", unit: "ms", on: onServe},
	{name: "service.done_ms_p99", unit: "ms", on: onServe},
	{name: "service.cached_done_ms_p50", unit: "ms", on: onServe},
	{name: "service.cached_submit_ms_p50", unit: "ms", on: onServe},
	{name: "service.runs_per_s", unit: "1/s", on: onServe},
	{name: "service.queue_wait_ms_p50", unit: "ms", on: onServe},
	{name: "service.exec_ms_p50", unit: "ms", on: onServe},
	{name: "service.exec_over_engine", unit: "ratio", on: onServe},
	{name: "service.drain_ms_p50", unit: "ms", on: onServe},
	{name: "service.frames_per_run", unit: "count", on: onServe},
	{name: "service.cache_hit_share", unit: "ratio", on: onServe},
	{name: "service.cell_ms_mean", unit: "ms", on: onSweeps},
	{name: "service.grid_utilization", unit: "ratio", on: onSweeps},
	{name: "service.sweep_overhead_share", unit: "ratio", on: onSweeps},
	{name: "service.hub_encodes_per_frame", unit: "ratio"},
	{name: "service.hub_ns_per_frame_sub1", unit: "ns"},
	{name: "service.hub_ns_per_frame_sub64", unit: "ns"},

	{name: "obs.handler_share", unit: "ratio", on: onHTTP},
	{name: "obs.scrape_ms", unit: "ms", on: onHTTP},
	{name: "obs.scrape_bytes", unit: "B", on: onHTTP},

	{name: "journal.append_us_per_record", unit: "us"},
	{name: "journal.sync_ms", unit: "ms"},
	{name: "journal.replay_mb_per_s", unit: "MB/s"},
	{name: "journal.bytes_per_cell", unit: "B", on: onSweeps},
	{name: "journal.busy_share", unit: "ratio", on: onSweeps},

	{name: "fleet.plan_us", unit: "us"},
	{name: "fleet.shards_per_sweep", unit: "count"},
	{name: "fleet.shard_ms_mean", unit: "ms", on: onFleet},
	{name: "fleet.dispatch_overhead_share", unit: "ratio", on: onFleet},
	{name: "fleet.redispatches", unit: "count", on: onFleet},
	{name: "fleet.busy_retries", unit: "count", on: onFleet},
	{name: "fleet.stream_resumes", unit: "count", on: onFleet},

	{name: "dynamics.perturb_us_per_round", unit: "us"},
	{name: "tasks.verify_ms", unit: "ms"},

	{name: "cmd.build_s", unit: "s", on: onHTTP},
	{name: "trace.overhead_pct", unit: "%"},
	{name: "trace.closure_pct", unit: "%"},
}

// sizing fixes how much work every workload and probe does. The
// benchmark runs at full; benchmark_test.go runs the same code at tiny
// so the whole catalogue finishes in seconds.
type sizing struct {
	starN, floodN int // star-large and flood-line network sizes

	wreathSizes []int // wreath-grid sizes
	wreathSeeds int   // wreath-grid seeds per (algorithm, family, size)

	serveN    int // serve-runs network size
	serveWarm int // serve-runs warm-up ops per set-up

	sweepSizes []int // sweep-single / sweep-fleet sizes
	sweepSeeds int   // fresh seeds per sweep
	sweepWarm  int   // warm-up sweeps per set-up

	setups int // set-ups per run; setup_s is their median
	minOps int // measured ops at least, however short -seconds is

	cliqueN       int // baseline.clique probe size
	probeRounds   int // rounds the engine-floor machines run
	hubFrames     int // frames per hub fan-out probe
	hubSubs       int // subscribers of the wide fan-out probe
	journalRecs   int // records the journal probe appends
	dynamicsN     int // dynamics probe network size
	scalingSeeds  int // seeds per group of the sweep-scaling probe off wreath-grid
	penaltyRounds int // repetitions of the fresh-engine penalty probe
}

var full = sizing{
	starN: 65536, floodN: 512,
	wreathSizes: []int{128, 256}, wreathSeeds: 8,
	serveN: 512, serveWarm: 120,
	sweepSizes: []int{24, 32, 48, 64, 96, 128, 192, 256}, sweepSeeds: 64, sweepWarm: 2,
	setups: 3, minOps: 3,
	cliqueN: 256, probeRounds: 48, hubFrames: 4096, hubSubs: 64,
	journalRecs: 4096, dynamicsN: 1024, scalingSeeds: 2, penaltyRounds: 12,
}
