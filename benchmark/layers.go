package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"adnet/internal/baseline"
	"adnet/internal/core"
	"adnet/internal/dynamics"
	"adnet/internal/expt"
	"adnet/internal/fleet"
	"adnet/internal/graph"
	"adnet/internal/journal"
	"adnet/internal/service"
	"adnet/internal/sim"
	"adnet/internal/tasks"
	"adnet/internal/temporal"
)

// The per-layer metrics of a traced run come from three places, all of
// them outside the program: one cell pushed through the same public
// calls expt.Runner.Execute makes, a span around each; replays of what
// that run recorded against a bare graph.Graph and temporal.History;
// and probes of public functions no workload reaches on its own
// (journal, fleet planning, the hub, dynamics).

// algorithmFactory is the machine factory and default options
// expt.Runner.Execute uses for the algorithm.
func algorithmFactory(name string, n int) (sim.Factory, []sim.Option) {
	switch name {
	case expt.AlgoStar:
		return core.NewGraphToStarFactory(), []sim.Option{sim.WithMachineRecycling(expt.AlgoStar)}
	case expt.AlgoWreath:
		return core.NewGraphToWreathFactory(), []sim.Option{sim.WithMaxRounds(core.WreathMaxRounds(n, core.WreathBranching(n, false)))}
	case expt.AlgoThinWreath:
		return core.NewGraphToThinWreathFactory(), []sim.Option{sim.WithMaxRounds(core.WreathMaxRounds(n, core.WreathBranching(n, true)))}
	case expt.AlgoFlood:
		return baseline.NewFloodFactory(), nil
	}
	panic("benchmark: no factory for algorithm " + name)
}

// depthBound is the Depth-d Tree bound the algorithm's tests hold it
// to; flooding builds no tree.
func depthBound(cell cellSpec) (int, bool) {
	switch cell.algo {
	case expt.AlgoStar:
		return 1, true
	case expt.AlgoWreath, expt.AlgoThinWreath:
		return wreathDepthBound(cell.n), true
	}
	return 0, false
}

// roundEdits is one round's committed delta as the delta hook saw it.
type roundEdits struct {
	act, deact []int32 // flat slot pairs
}

// cellRun is what one cell pushed through the layers recorded.
type cellRun struct {
	build, reset, run, bfs, verify, total time.Duration
	summary                               sim.RunSummary
	stamps                                []time.Time // start hook, then one per round
	edits                                 []roundEdits
}

// children is the sum of the spans under the cell's root.
func (c *cellRun) children() time.Duration { return c.build + c.reset + c.run + c.bfs + c.verify }

// cellRig holds what a traced cell runs on, reused across cells like a
// Runner reuses its engine and arena.
type cellRig struct {
	tr             *tracer
	eng            *sim.Engine
	arena, scratch *graph.Graph
	bfs            graph.BFSScratch
	ops            int
}

func newCellRig(tr *tracer) *cellRig {
	return &cellRig{tr: tr, eng: sim.NewEngine(), arena: graph.New(), scratch: graph.New()}
}

// runCell makes the calls Runner.Execute makes — workload build,
// Engine.Reset, Engine.Run, BFS analysis, verification — one span each.
// With capture it also keeps every round's delta for the replays.
func (r *cellRig) runCell(cell cellSpec, seed int64, workers int, capture bool) (*cellRun, error) {
	r.ops++
	out := &cellRun{}
	root := r.tr.begin("expt.cell", r.ops, 0)
	start := time.Now()

	var g *graph.Graph
	var err error
	out.build = r.tr.timed("graph.build", r.ops, root, func() {
		g, err = expt.WorkloadInto(r.arena, r.scratch, cell.family, cell.n, seed)
	})
	if err != nil {
		return nil, err
	}
	factory, opts := algorithmFactory(cell.algo, cell.n)
	opts = append(opts,
		sim.WithParallelism(workers),
		sim.WithRunObserver(func(s sim.RunSummary) { out.summary = s }),
		sim.WithStartHook(func(sim.StartEvent) { out.stamps = append(out.stamps, time.Now()) }),
		sim.WithDeltaHook(func(d temporal.RoundDelta) {
			out.stamps = append(out.stamps, time.Now())
			if capture {
				out.edits = append(out.edits, roundEdits{
					act:   append([]int32(nil), d.Activate...),
					deact: append([]int32(nil), d.Deactivate...),
				})
			}
		}))
	out.reset = r.tr.timed("sim.reset", r.ops, root, func() { err = r.eng.Reset(g, factory, opts...) })
	if err != nil {
		return nil, err
	}
	var res *sim.Result
	out.run = r.tr.timed("sim.run", r.ops, root, func() { res, err = r.eng.Run() })
	if err != nil {
		return nil, fmt.Errorf("%s/%s/n=%d: %w", cell.algo, cell.family, cell.n, err)
	}
	final, umax := res.History.CurrentView(), g.MaxID()
	out.bfs = r.tr.timed("graph.bfs", r.ops, root, func() {
		r.bfs.ApproxDiameter(final)
		r.bfs.Eccentricity(final, umax)
	})
	out.verify = r.tr.timed("tasks.verify", r.ops, root, func() {
		err = tasks.VerifyLeaderElection(res, umax)
		if bound, ok := depthBound(cell); err == nil && ok {
			err = tasks.VerifyDepthTree(final, umax, bound)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("%s/%s/n=%d: %w", cell.algo, cell.family, cell.n, err)
	}
	out.total = time.Since(start)
	r.tr.end(root)
	return out, nil
}

// idler never sends: the rounds it runs cost what the engine costs.
type idler struct{ rounds int }

func (m idler) Init(*sim.Context) {}
func (m idler) Send(*sim.Context) {}
func (m idler) Receive(ctx *sim.Context, _ []sim.Message) {
	if ctx.Round() >= m.rounds {
		ctx.Halt()
	}
}

// chatterer sends one small int to every neighbour every round: on top
// of the idler's rounds it costs what delivery costs.
type chatterer struct{ idler }

func (m chatterer) Send(ctx *sim.Context) { ctx.Broadcast(1) }

// runFloor runs one of the benchmark-owned machines on g at workers=1
// and returns the engine's own digest of the run.
func (r *cellRig) runFloor(g *graph.Graph, name string, machine sim.Machine) (sim.RunSummary, error) {
	var sum sim.RunSummary
	r.ops++
	var err error
	r.tr.timed(name, r.ops, 0, func() {
		err = r.eng.Reset(g, func(graph.ID, sim.Env) sim.Machine { return machine },
			sim.WithParallelism(1), sim.WithRunObserver(func(s sim.RunSummary) { sum = s }))
		if err == nil {
			_, err = r.eng.Run()
		}
	})
	return sum, err
}

// slotEdges turns flat slot pairs into edges of g, whose slots are the
// ascending-ID ranks the deltas are written in.
func slotEdges(h *temporal.History, pairs []int32) []graph.Edge {
	out := make([]graph.Edge, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, graph.NewEdge(h.IDAtSlot(int(pairs[i])), h.IDAtSlot(int(pairs[i+1]))))
	}
	return out
}

// layerShares is what libraryLayers hands back for the metrics the
// caller derives: the engine time of the cell for service.exec_over_engine,
// and the library path's own trace overhead and closure.
type layerShares struct {
	executeMS   float64
	overheadPct float64
	closurePct  float64
	digest      string // of the cell's outcome
}

// libraryLayers measures graph, temporal, sim, core/baseline, expt and
// tasks on one cell. oracle judges every Runner.Execute outcome; those
// are the attempted operations of a traced library run.
func libraryLayers(cfg *config, res *result, cell cellSpec, oracle func(expt.Outcome) error) (layerShares, error) {
	var shares layerShares
	tr := cfg.tr
	seq := sim.WithParallelism(1)

	// expt: the real Runner.Execute, the parent the cell's spans must
	// add up to — and, alternating with it so both see the same heap and
	// the same host, the same cell one call at a time. The first pair is
	// the warm-up that sizes Runner and engine; the pairs repeat while
	// the cell is cheap.
	runner := expt.NewRunner()
	defer runner.Close()
	rig := newCellRig(tr)
	defer rig.eng.Close()
	var executeMS []float64
	var allocMB float64
	var runs []*cellRun
	for i, budget := 0, 2*time.Second; ; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		out, err := runner.Execute(cell.request(cfg.seed, seq))
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		if err == nil {
			err = oracle(out)
		}
		if err != nil {
			return shares, err
		}
		c, err := rig.runCell(cell, cfg.seed, 1, i == 1)
		if err != nil {
			return shares, err
		}
		if i == 0 {
			shares.digest = digestOf(out)
			continue
		}
		res.op(nil)
		executeMS, runs = append(executeMS, ms(d)), append(runs, c)
		allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		if budget -= d; budget <= 0 || i >= 9 {
			break
		}
	}
	shares.executeMS = median(executeMS)
	med := func(get func(*cellRun) time.Duration) float64 {
		xs := make([]float64, len(runs))
		for i, c := range runs {
			xs[i] = ms(get(c))
		}
		return median(xs)
	}
	first := runs[0]
	runMS := ms(first.summary.Duration)
	nodeRounds := float64(cell.n * first.summary.Rounds)
	children := med((*cellRun).children)
	res.set("graph.build_ms", med(func(c *cellRun) time.Duration { return c.build }))
	res.set("graph.bfs_ms", med(func(c *cellRun) time.Duration { return c.bfs }))
	res.set("tasks.verify_ms", med(func(c *cellRun) time.Duration { return c.verify }))
	res.set("sim.reset_ms", med(func(c *cellRun) time.Duration { return c.reset }))
	res.set("sim.run_ms", runMS)
	res.set("sim.rounds", float64(first.summary.Rounds))
	res.set("sim.messages", float64(first.summary.TotalMessages))
	res.set("expt.execute_ms", shares.executeMS)
	res.set("expt.overhead_ms", shares.executeMS-children)
	res.set("expt.alloc_mb_per_op", allocMB)
	shares.closurePct = 100 * ratio(children, shares.executeMS)
	shares.overheadPct = 100 * ratio(med(func(c *cellRun) time.Duration { return c.total })-shares.executeMS, shares.executeMS)

	// The per-round clock: the delta hook fires once a round, after the
	// round's edits are committed. A quiet round is one that edited
	// nothing.
	var roundUS, quietUS []float64
	for i := 1; i < len(first.stamps); i++ {
		us := float64(first.stamps[i].Sub(first.stamps[i-1]).Nanoseconds()) / 1e3
		roundUS = append(roundUS, us)
		if e := first.edits[i-1]; len(e.act)+len(e.deact) == 0 {
			quietUS = append(quietUS, us)
		}
	}
	res.set("sim.round_us_p50", median(roundUS))
	res.set("sim.round_us_max", quantile(roundUS, 1))
	res.set("sim.quiet_round_share", ratio(float64(len(quietUS)), float64(len(roundUS))))
	res.set("sim.quiet_round_us_p50", median(quietUS))

	// The same cell with the engine's own worker pool.
	par, err := rig.runCell(cell, cfg.seed, cfg.nproc, false)
	if err != nil {
		return shares, err
	}
	res.set("sim.par_run_ms", ms(par.summary.Duration))
	res.set("sim.par_efficiency", par.summary.ParallelEfficiency())
	res.set("sim.par_speedup", ratio(runMS, ms(par.summary.Duration)))

	// Engine floor and delivery cost at the cell's size, on its graph.
	g, err := expt.Workload(cell.family, cell.n, cfg.seed)
	if err != nil {
		return shares, err
	}
	idle, err := rig.runFloor(g, "sim.idle", idler{cfg.size.probeRounds})
	if err != nil {
		return shares, err
	}
	chat, err := rig.runFloor(g, "sim.chatter", chatterer{idler{cfg.size.probeRounds}})
	if err != nil {
		return shares, err
	}
	idleNS := ratio(float64(idle.Duration.Nanoseconds()), float64(cell.n*idle.Rounds))
	res.set("sim.idle_ns_per_node_round", idleNS)
	res.set("sim.deliver_ns_per_msg", ratio(float64((chat.Duration-idle.Duration).Nanoseconds()), float64(chat.TotalMessages)))

	// temporal: the recorded deltas through a fresh History.
	hist := temporal.NewHistory(g)
	resetStart := time.Now()
	hist.Reset(g)
	res.set("temporal.reset_ms", ms(time.Since(resetStart)))
	acts := make([][]graph.Edge, len(first.edits))
	deacts := make([][]graph.Edge, len(first.edits))
	edits := 0
	for i, e := range first.edits {
		acts[i], deacts[i] = slotEdges(hist, e.act), slotEdges(hist, e.deact)
		edits += len(acts[i]) + len(deacts[i])
	}
	var applyErr error
	apply := tr.timed("temporal.apply", 0, 0, func() {
		for i := range acts {
			if _, err := hist.Apply(acts[i], deacts[i]); err != nil {
				applyErr = err
				return
			}
		}
	})
	if applyErr != nil {
		return shares, fmt.Errorf("replaying the recorded deltas: %w", applyErr)
	}
	res.set("temporal.apply_ms", ms(apply))
	res.set("temporal.edits", float64(edits))
	res.set("temporal.apply_ns_per_edit", ratio(float64(apply.Nanoseconds()), float64(edits)))
	res.set("temporal.apply_share", ratio(ms(apply), runMS))

	// graph: the same deltas against a bare Graph, one pass per
	// operation kind so each is timed apart from the others. HasEdge
	// also runs over E(1): delivery asks it of every message's edge.
	bare := g.Clone()
	initial := bare.Edges()
	var hasEdge, common, edit time.Duration
	var hasEdges, commons, editCount int
	sink := false
	start := time.Now()
	for _, e := range initial {
		sink = bare.HasEdge(e.A, e.B) != sink
	}
	hasEdge, hasEdges = time.Since(start), len(initial)
	for i := range acts {
		if len(acts[i])+len(deacts[i]) == 0 {
			continue
		}
		start = time.Now()
		for _, e := range acts[i] {
			sink = bare.HasEdge(e.A, e.B) != sink
		}
		for _, e := range deacts[i] {
			sink = bare.HasEdge(e.A, e.B) != sink
		}
		hasEdge += time.Since(start)
		start = time.Now()
		for _, e := range acts[i] {
			sink = bare.HaveCommonNeighbor(e.A, e.B) != sink
		}
		common += time.Since(start)
		start = time.Now()
		for _, e := range acts[i] {
			if err := bare.AddEdge(e.A, e.B); err != nil {
				return shares, err
			}
		}
		for _, e := range deacts[i] {
			sink = bare.RemoveEdge(e.A, e.B) != sink
		}
		edit += time.Since(start)
		hasEdges += len(acts[i]) + len(deacts[i])
		commons += len(acts[i])
		editCount += len(acts[i]) + len(deacts[i])
	}
	graphSink = sink
	res.set("graph.has_edge_ns", ratio(float64(hasEdge.Nanoseconds()), float64(hasEdges)))
	res.set("graph.common_neighbor_ns", ratio(float64(common.Nanoseconds()), float64(commons)))
	res.set("graph.edit_ns", ratio(float64(edit.Nanoseconds()), float64(editCount)))

	// What is left of the run once History.Apply and the engine floor
	// are taken out is the algorithm's own machines. Derived, not
	// measured: the three terms come from three separate runs.
	self := runMS - ms(apply) - idleNS*nodeRounds/1e6
	if cell.algo == expt.AlgoFlood {
		res.set("baseline.self_ms", self)
		res.set("core.self_ms", 0)
	} else {
		res.set("core.self_ms", self)
		res.set("baseline.self_ms", 0)
	}
	return shares, nil
}

// graphSink keeps the replay's query results observable so the
// compiler cannot drop the calls.
var graphSink bool

// sweepScaling runs the grid with one Runner and with nproc, checking
// every cell, and sets the expt sweep metrics.
func sweepScaling(cfg *config, res *result, spec expt.SweepSpec, count bool) ([]expt.CellResult, error) {
	var rates [2]float64
	var results []expt.CellResult
	for i, workers := range []int{1, cfg.nproc} {
		var err error
		d := cfg.tr.timed(fmt.Sprintf("expt.sweep_w%d", workers), 0, 0, func() {
			results, err = expt.ExecuteSweep(spec, expt.SweepOptions{Workers: workers})
		})
		if err != nil {
			return nil, err
		}
		for _, c := range results {
			if err := checkWreathCell(c); count {
				res.op(err)
			} else if err != nil {
				return nil, err
			}
		}
		rates[i] = float64(len(results)) / d.Seconds()
	}
	res.set("expt.sweep_cells_per_s_w1", rates[0])
	res.set("expt.sweep_scaling", ratio(rates[1], rates[0]))
	start := time.Now()
	aggregateSink = expt.Aggregate(results)
	res.set("expt.aggregate_ms", ms(time.Since(start)))
	return results, nil
}

var aggregateSink []expt.AggregateGroup

// defaultCellRecordBytes is the journal payload of one sweep cell as
// sized when this benchmark was written; sweep workloads replace it
// with the size they observe on /metrics.
const defaultCellRecordBytes = 366

// probeLayers measures the public functions no workload's client path
// reaches on its own terms: the clique baseline, the fresh-engine
// penalty, sweep scaling, journal, fleet planning, the hub, dynamics.
// recordBytes is the journal record size to append; appendUS, the cost
// measured, is returned for journal.busy_share.
func probeLayers(cfg *config, res *result, withScaling bool, recordBytes int) (appendUS float64, err error) {
	tr := cfg.tr
	runner := expt.NewRunner()
	defer runner.Close()

	// baseline: the slowest algorithm in the repository, at a size that
	// still fits a probe.
	clique := cellSpec{algo: expt.AlgoClique, family: "line", n: cfg.size.cliqueN}
	d := tr.timed("baseline.clique", 0, 0, func() { _, err = runner.Execute(clique.request(cfg.seed)) })
	if err != nil {
		return 0, err
	}
	res.set("baseline.clique_n256_ms", ms(d))

	// expt: what a throwaway engine per run costs over a reused one, at
	// the cell serve-runs submits. The two are timed in batches of their
	// own, so each pays for the garbage it makes itself.
	small := cellSpec{algo: expt.AlgoStar, family: "line", n: cfg.size.serveN}
	batch := func(execute func(expt.Request) (expt.Outcome, error)) (float64, error) {
		var xs []float64
		for i := 0; i <= cfg.size.penaltyRounds; i++ {
			start := time.Now()
			if _, err := execute(small.request(cfg.seed)); err != nil {
				return 0, err
			}
			if i > 0 { // the first run warms the Runner
				xs = append(xs, ms(time.Since(start)))
			}
		}
		return median(xs), nil
	}
	reused, err := batch(runner.Execute)
	if err != nil {
		return 0, err
	}
	fresh, err := batch(expt.Execute)
	if err != nil {
		return 0, err
	}
	res.set("expt.fresh_engine_penalty_ms", fresh-reused)

	if withScaling {
		if _, err := sweepScaling(cfg, res, wreathGrid(cfg, cfg.size.scalingSeeds), false); err != nil {
			return 0, err
		}
	}

	// journal: Open / Append / Sync / ReadAll on records of the size a
	// sweep cell journals.
	dir := filepath.Join(cfg.outDir, "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	path := filepath.Join(dir, fmt.Sprintf("probe-%d.wal", os.Getpid()))
	defer os.Remove(path)
	log, err := journal.Open(path)
	if err != nil {
		return 0, err
	}
	if _, err := log.Replay(func(journal.Record) error { return nil }); err != nil {
		log.Close()
		return 0, err
	}
	record := make([]byte, recordBytes)
	for i := range record {
		record[i] = byte('a' + i%26)
	}
	d = tr.timed("journal.append", 0, 0, func() {
		for i := 0; i < cfg.size.journalRecs && err == nil; i++ {
			err = log.Append(1, record)
		}
	})
	if err == nil {
		res.set("journal.sync_ms", ms(tr.timed("journal.sync", 0, 0, func() { err = log.Sync() })))
	}
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	appendUS = float64(d.Microseconds()) / float64(cfg.size.journalRecs)
	res.set("journal.append_us_per_record", appendUS)
	var records []journal.Record
	d = tr.timed("journal.replay", 0, 0, func() { records, _, err = journal.ReadAll(path) })
	if err != nil {
		return 0, err
	}
	if len(records) != cfg.size.journalRecs {
		return 0, fmt.Errorf("journal probe: %d records read back, %d appended", len(records), cfg.size.journalRecs)
	}
	res.set("journal.replay_mb_per_s", float64(len(records)*recordBytes)/1e6/d.Seconds())

	// fleet: planning the shards of the grid the sweep workloads submit.
	grid := sweepGrid(cfg.size, cfg.seed).Expt()
	const plans = 64
	var shards []fleet.Shard
	d = tr.timed("fleet.plan", 0, 0, func() {
		for i := 0; i < plans; i++ {
			shards = fleet.PlanShards(grid)
		}
	})
	res.set("fleet.plan_us", float64(d.Microseconds())/plans)
	res.set("fleet.shards_per_sweep", float64(len(shards)))

	// service: the encode-once hub, one subscriber and many.
	for _, subs := range []struct {
		n    int
		name string
	}{{1, "service.hub_ns_per_frame_sub1"}, {cfg.size.hubSubs, "service.hub_ns_per_frame_sub64"}} {
		var fan service.FanoutBenchResult
		d = tr.timed(subs.name, 0, 0, func() { fan = service.RunFanoutBench(cfg.size.hubFrames, subs.n) })
		res.set(subs.name, float64(d.Nanoseconds())/float64(cfg.size.hubFrames))
		res.set("service.hub_encodes_per_frame", float64(fan.Encodes)/float64(cfg.size.hubFrames))
	}

	// dynamics: the environment's Perturb against a History, kept so an
	// engine change that taxes the env path shows somewhere.
	env, err := dynamics.New(dynamics.Spec{Class: dynamics.ClassEdgeChurn}, cfg.seed)
	if err != nil {
		return 0, err
	}
	ring := graph.Ring(cfg.size.dynamicsN)
	hist := temporal.NewHistory(ring)
	env.Begin(ring.NumNodes())
	var editsBuf sim.EnvEdits
	var perturb time.Duration
	const envRounds = 256
	for round := 1; round <= envRounds; round++ {
		if _, err := hist.Apply(nil, nil); err != nil {
			return 0, err
		}
		editsBuf.Reset()
		start := time.Now()
		env.Perturb(round, hist, &editsBuf)
		perturb += time.Since(start)
		if _, err := hist.ApplyEnvironment(editsBuf.Activate, editsBuf.Deactivate); err != nil {
			return 0, err
		}
	}
	res.set("dynamics.perturb_us_per_round", float64(perturb.Nanoseconds())/1e3/envRounds)
	return appendUS, nil
}

// traceLibrary is the traced run of star-large and flood-line.
func traceLibrary(cfg *config, res *result, cell cellSpec, oracle func(expt.Outcome) error) error {
	shares, err := libraryLayers(cfg, res, cell, oracle)
	if err != nil {
		return err
	}
	res.digest = shares.digest
	res.set("trace.overhead_pct", shares.overheadPct)
	res.set("trace.closure_pct", shares.closurePct)
	_, err = probeLayers(cfg, res, true, defaultCellRecordBytes)
	return err
}

// traceWreath is the traced run of wreath-grid: the whole grid with one
// Runner and with nproc, then the layers on its largest line cell.
func traceWreath(cfg *config, res *result, spec expt.SweepSpec) error {
	results, err := sweepScaling(cfg, res, spec, true)
	if err != nil {
		return err
	}
	res.digest = digestOfCells(results)
	if err := verifyWreathTrees(results); err != nil {
		res.wrong(err)
	}
	cell := cellSpec{algo: expt.AlgoWreath, family: "line", n: spec.Sizes[len(spec.Sizes)-1]}
	shares, err := libraryLayers(cfg, res, cell, func(out expt.Outcome) error {
		return checkWreathCell(expt.CellResult{Cell: expt.Cell{Algorithm: cell.algo, Workload: cell.family, N: cell.n, Seed: cfg.seed}, Outcome: out})
	})
	if err != nil {
		return err
	}
	res.set("trace.overhead_pct", shares.overheadPct)
	res.set("trace.closure_pct", shares.closurePct)
	_, err = probeLayers(cfg, res, false, defaultCellRecordBytes)
	return err
}
