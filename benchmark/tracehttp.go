package main

import (
	"fmt"
	"time"

	"adnet/internal/expt"
	"adnet/internal/obs"
)

// A traced HTTP run keeps the client path of the untraced one and adds
// what can be seen from outside the servers: a span per request phase,
// the job timestamps GET /v1/runs/{id} reports, and the growth of the
// servers' /metrics pages over the traced segment. An untraced segment
// of the same load in the same process is the base of
// trace.overhead_pct; end-to-end metrics are never taken from here.

// Shares of -seconds a traced HTTP run gives its two segments; the rest
// of its time goes to the library layers and probes.
const (
	untracedShare = 0.3
	tracedShare   = 0.4
)

// httpTrace is the part of a traced HTTP run both kinds share: build,
// deploy, warm up, the untraced segment, and the scrapes around the
// traced one.
type httpTrace struct {
	d             *deployment
	scraper       *client
	before, after []*obs.Metrics
	wall          time.Duration // of the traced segment
}

// begin builds and deploys, warms up, and runs untraced (which returns
// the headline p50 the overhead is taken against) before the first
// scrape.
func (h *httpTrace) begin(cfg *config, res *result, deployFn func(*config) (*deployment, error), warm func(*deployment) error, untraced func() (float64, error)) (base float64, err error) {
	build, err := cfg.build()
	if err != nil {
		return 0, err
	}
	res.set("cmd.build_s", build.Seconds())
	if h.d, err = deployFn(cfg); err != nil {
		return 0, err
	}
	if err := warm(h.d); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	if base, err = untraced(); err != nil {
		return 0, err
	}
	h.scraper = newClient()
	h.before, _, _, err = scrapeAll(h.scraper, h.d.servers)
	return base, err
}

// end scrapes again and sets the metrics every HTTP workload reads off
// the pages.
func (h *httpTrace) end(res *result) error {
	var took time.Duration
	var size int
	var err error
	if h.after, took, size, err = scrapeAll(h.scraper, h.d.servers); err != nil {
		return err
	}
	res.set("obs.scrape_ms", ms(took))
	res.set("obs.scrape_bytes", float64(size))
	res.set("obs.handler_share", ratio(h.grew("adnet_http_request_duration_seconds_sum", nil), h.wall.Seconds()))
	res.set("service.encode_us_per_frame", 1e6*ratio(
		h.grew("adnet_stream_encode_duration_seconds_sum", nil),
		h.grew("adnet_stream_encode_duration_seconds_count", nil)))
	return nil
}

func (h *httpTrace) grew(name string, match map[string]string) float64 {
	return grew(h.before, h.after, name, match)
}

func (h *httpTrace) close() {
	if h.scraper != nil {
		h.scraper.close()
	}
	if h.d != nil {
		h.d.stop()
	}
}

// traceServe is the traced run of serve-runs.
func traceServe(cfg *config, res *result, load *serveLoad) error {
	var h httpTrace
	defer h.close()
	total := func(o serveOp) time.Duration { return o.total }
	base, err := h.begin(cfg, res, deployServe, load.warmUp, func() (float64, error) {
		ops, _, err := load.measure(res, untracedShare*cfg.seconds)
		return median(pick(ops, isFresh, total)), err
	})
	if err != nil {
		return err
	}
	load.tr = cfg.tr
	ops, wall, err := load.measure(res, tracedShare*cfg.seconds)
	load.tr = nil
	if err != nil {
		return err
	}
	h.wall = wall
	if err := h.end(res); err != nil {
		return err
	}
	res.digest = digestOf(load.ref)

	p50 := func(keep func(serveOp) bool, get func(serveOp) time.Duration) float64 {
		return median(pick(ops, keep, get))
	}
	submit := p50(isFresh, func(o serveOp) time.Duration { return o.submit })
	done := p50(isFresh, func(o serveOp) time.Duration { return o.done })
	queue := p50(isStaged, func(o serveOp) time.Duration { return o.queue })
	exec := p50(isStaged, func(o serveOp) time.Duration { return o.exec })
	drain := p50(isStaged, func(o serveOp) time.Duration { return o.drain })
	firsts := pick(ops, isFresh, func(o serveOp) time.Duration { return o.first })
	var wire float64
	for _, op := range ops {
		wire += float64(op.bytes)
	}
	res.set("service.submit_ms_p50", submit)
	res.set("service.queue_wait_ms_p50", queue)
	res.set("service.exec_ms_p50", exec)
	res.set("service.drain_ms_p50", drain)
	res.set("service.done_ms_p50", done)
	res.set("service.done_ms_p99", quantile(pick(ops, isFresh, func(o serveOp) time.Duration { return o.done }), 0.99))
	res.set("service.first_frame_ms_p50", median(firsts))
	res.set("service.first_frame_ms_p99", quantile(firsts, 0.99))
	res.set("service.cached_done_ms_p50", p50(isCached, func(o serveOp) time.Duration { return o.done }))
	res.set("service.cached_submit_ms_p50", p50(isCached, func(o serveOp) time.Duration { return o.submit }))
	res.set("service.runs_per_s", float64(len(ops))/wall.Seconds())
	res.set("service.wire_bytes_per_run", ratio(wire, float64(len(ops))))
	res.set("service.frames_per_run", ratio(h.grew("adnet_stream_frames_encoded_total", nil), float64(len(ops))))
	hits, misses := h.grew("adnet_cache_hits_total", nil), h.grew("adnet_cache_misses_total", nil)
	res.set("service.cache_hit_share", ratio(hits, hits+misses))
	// Closure: the four phases of a fresh run must add up to what the
	// client waited for; what is missing or double is in neither.
	res.set("trace.closure_pct", 100*ratio(submit+queue+exec+drain, done))
	res.set("trace.overhead_pct", 100*ratio(p50(isFresh, total)-base, base))
	h.close()

	shares, err := libraryLayers(cfg, res, load.cell, starOracle)
	if err != nil {
		return err
	}
	res.set("service.exec_over_engine", ratio(exec, shares.executeMS))
	_, err = probeLayers(cfg, res, true, defaultCellRecordBytes)
	return err
}

// traceSweeps is the traced run of sweep-single and sweep-fleet.
func traceSweeps(cfg *config, res *result, deployFn func(*config) (*deployment, error), load *sweepLoad) error {
	var h httpTrace
	defer h.close()
	p50 := func(ops []sweepOp, get func(sweepOp) time.Duration) float64 {
		xs := make([]float64, len(ops))
		for i, op := range ops {
			xs[i] = ms(get(op))
		}
		return median(xs)
	}
	total := func(o sweepOp) time.Duration { return o.total }
	base, err := h.begin(cfg, res, deployFn, load.warmUp, func() (float64, error) {
		ops, _, err := load.measure(res, untracedShare*cfg.seconds)
		return p50(ops, total), err
	})
	if err != nil {
		return err
	}
	load.tr = cfg.tr
	ops, wall, err := load.measure(res, tracedShare*cfg.seconds)
	load.tr = nil
	if err != nil {
		return err
	}
	if len(ops) == 0 {
		return fmt.Errorf("no sweep of the traced segment succeeded: %v", res.problems)
	}
	h.wall = wall
	if err := h.end(res); err != nil {
		return err
	}
	res.digest = digestOf(ops[0].groups)
	if err := checkReference(ops[0]); err != nil {
		res.wrong(err)
	}

	cells := 0
	var sweepWall time.Duration
	for _, op := range ops {
		cells += op.spec.Expt().NumCells()
		sweepWall += op.total
	}
	submit := p50(ops, func(o sweepOp) time.Duration { return o.submit })
	res.set("service.submit_ms_p50", submit)
	res.set("service.first_frame_ms_p50", p50(ops, func(o sweepOp) time.Duration { return o.first }))
	cellSeconds := h.grew("adnet_sweep_cell_duration_seconds_sum", nil)
	res.set("service.cell_ms_mean", 1e3*ratio(cellSeconds, h.grew("adnet_sweep_cell_duration_seconds_count", nil)))
	res.set("service.grid_utilization", ratio(
		h.grew("adnet_sweep_grid_utilization_ratio_sum", nil),
		h.grew("adnet_sweep_grid_utilization_ratio_count", nil)))
	// The share of the engine threads' time, over the sweeps' wall, that
	// was not spent inside a cell: everything the service stack — and on
	// the fleet, planning, dispatch and merge — adds around the runs.
	overhead := 1 - ratio(cellSeconds, float64(h.d.threads)*sweepWall.Seconds())
	res.set("service.sweep_overhead_share", overhead)
	journaled := h.grew("adnet_journal_appended_bytes_total", nil)
	res.set("journal.bytes_per_cell", ratio(journaled, float64(cells)))
	if cfg.workload == wSweepFleet {
		res.set("fleet.dispatch_overhead_share", overhead)
		res.set("fleet.shard_ms_mean", 1e3*ratio(
			h.grew("adnet_fleet_shard_duration_seconds_sum", nil),
			h.grew("adnet_fleet_shard_duration_seconds_count", nil)))
		res.set("fleet.redispatches", h.grew("adnet_fleet_shards_redispatched_total", nil))
		res.set("fleet.busy_retries", h.grew("adnet_fleet_busy_retries_total", nil))
		res.set("fleet.stream_resumes", h.grew("adnet_fleet_stream_resumes_total", nil))
	}
	// Closure: submit, cell stream and aggregate are the whole op.
	phases := submit + p50(ops, func(o sweepOp) time.Duration { return o.cells - o.submit }) +
		p50(ops, func(o sweepOp) time.Duration { return o.total - o.cells })
	res.set("trace.closure_pct", 100*ratio(phases, p50(ops, total)))
	res.set("trace.overhead_pct", 100*ratio(p50(ops, total)-base, base))
	records := h.grew("adnet_journal_records_total", nil)
	h.close()

	cell := cellSpec{algo: expt.AlgoStar, family: "line", n: cfg.size.sweepSizes[len(cfg.size.sweepSizes)-1]}
	if _, err := libraryLayers(cfg, res, cell, starOracle); err != nil {
		return err
	}
	recordBytes := defaultCellRecordBytes
	if records > 0 {
		recordBytes = max(int(journaled/records), 1)
	}
	appendUS, err := probeLayers(cfg, res, true, recordBytes)
	if err != nil {
		return err
	}
	res.set("journal.busy_share", ratio(records*appendUS/1e6, sweepWall.Seconds()))
	return nil
}
