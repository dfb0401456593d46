package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"adnet/internal/expt"
	"adnet/internal/obs"
	"adnet/internal/service"
)

// The HTTP workloads drive real adnet-server processes from this one
// process, closed loop: a client sends its next request only when the
// previous operation is complete, at most nproc clients, one
// keep-alive connection each.

// deployment is the set of servers one HTTP workload talks to.
type deployment struct {
	base    string    // where the client sends its requests
	servers []*server // every process: RSS, /metrics and teardown
	threads int       // engine threads over all servers
}

func (d *deployment) stop() {
	for i := len(d.servers) - 1; i >= 0; i-- {
		d.servers[i].stop()
	}
}

func (d *deployment) peakRSSMB() (total float64) {
	for _, s := range d.servers {
		total += s.peakRSSMB()
	}
	return total
}

func deployServe(cfg *config) (*deployment, error) {
	s, err := cfg.launch(serverSpec{workers: cfg.nproc})
	if err != nil {
		return nil, err
	}
	return &deployment{base: s.base, servers: []*server{s}, threads: cfg.nproc}, nil
}

func deploySingle(cfg *config) (*deployment, error) {
	s, err := cfg.launch(serverSpec{sweepWorkers: cfg.nproc, dataDir: true})
	if err != nil {
		return nil, err
	}
	return &deployment{base: s.base, servers: []*server{s}, threads: cfg.nproc}, nil
}

// deployFleet is a coordinator over nproc workers of one engine thread
// each, so the fleet has as many engine threads as sweep-single.
func deployFleet(cfg *config) (*deployment, error) {
	d := &deployment{threads: cfg.nproc}
	var urls []string
	for w := 0; w < cfg.nproc; w++ {
		s, err := cfg.launch(serverSpec{sweepWorkers: 1})
		if err != nil {
			d.stop()
			return nil, err
		}
		d.servers, urls = append(d.servers, s), append(urls, s.base)
	}
	coord, err := cfg.launch(serverSpec{coordinator: true, dataDir: true, fleetWorkers: urls})
	if err != nil {
		d.stop()
		return nil, err
	}
	d.base, d.servers = coord.base, append(d.servers, coord)
	return d, nil
}

// setUp deploys and warms the servers cfg.size.setups times — every
// time from nothing: fresh processes, fresh data dir — and keeps the
// last deployment for the measured loop. Teardown of the earlier ones
// is not part of a set-up's time.
func setUp(cfg *config, deployFn func(*config) (*deployment, error), warm func(*deployment) error) (*deployment, []float64, error) {
	var d *deployment
	var setups []float64
	for s := 0; s < max(cfg.size.setups, 1); s++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		if d, err = deployFn(cfg); err != nil {
			return nil, nil, err
		}
		if err := warm(d); err != nil {
			d.stop()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return d, setups, nil
}

// ---- serve-runs ----

// servedSpec is a fresh spec a client ran, with what its streams
// hashed to, so a later resubmission's replay can be compared.
type servedSpec struct {
	seed              int64
	roundsSum, topSum uint32
}

// serveClient is one closed-loop client of serve-runs.
type serveClient struct {
	*client
	rng     *rand.Rand
	next    int64 // next unused seed
	issued  int
	history []servedSpec
}

// serveOp is one submit → /rounds to EOF → /topology to EOF, timed
// from the moment the POST was sent.
type serveOp struct {
	fresh  bool // a spec the server has never seen
	cached bool // the server answered the POST from its result cache
	submit time.Duration
	first  time.Duration // first /rounds frame read
	done   time.Duration // last /rounds frame read
	total  time.Duration // /topology drained too
	bytes  int

	// Server-side phases from GET /v1/runs/{id}; traced runs only.
	staged             bool
	queue, exec, drain time.Duration
}

// serveLoad is the serve-runs generator.
type serveLoad struct {
	cfg     *config
	cell    cellSpec
	base    string
	ref     expt.Outcome // what every run of the cell must report
	clients []*serveClient
	tr      *tracer // set for the traced segment of a traced run only
	opSeq   int
	mu      sync.Mutex
}

// resubmitEvery and resubmitWindow shape the repeated keys: every 4th
// op of a client resubmits one of its last 48 fresh specs — at most 64
// ops back, far inside the server's 512-entry result cache.
const (
	resubmitEvery  = 4
	resubmitWindow = 48
)

func newServeLoad(cfg *config) (*serveLoad, error) {
	l := &serveLoad{cfg: cfg, cell: cellSpec{algo: expt.AlgoStar, family: "line", n: cfg.size.serveN}}
	// line ignores the seed, so every fresh spec does identical work
	// under a different cache key, and one in-process run is the
	// reference for all of them.
	ref, err := expt.Execute(l.cell.request(cfg.seed))
	if err != nil {
		return nil, err
	}
	l.ref = ref
	for c := 0; c < cfg.nproc; c++ {
		l.clients = append(l.clients, &serveClient{
			client: newClient(),
			rng:    rand.New(rand.NewSource(cfg.seed*1000 + int64(c))),
			next:   cfg.seed<<32 + int64(c)<<28,
		})
	}
	return l, nil
}

// warmUp points the load at a freshly deployed server — whose cache
// is empty, so the clients forget what they ran — and runs the
// unmeasured warm-up ops, split over the clients.
func (l *serveLoad) warmUp(d *deployment) error {
	l.base = d.base
	for _, c := range l.clients {
		c.history = nil
	}
	share := (l.cfg.size.serveWarm + len(l.clients) - 1) / len(l.clients)
	_, _, err := l.drive(nil, func(done int, _ time.Duration) bool { return done >= share })
	return err
}

func (l *serveLoad) close() {
	for _, c := range l.clients {
		c.close()
	}
}

// one runs a single op on client c and checks its output.
func (l *serveLoad) one(c *serveClient) (serveOp, error) {
	op := serveOp{fresh: true}
	var prior servedSpec
	if c.issued%resubmitEvery == resubmitEvery-1 && len(c.history) > 0 {
		op.fresh = false
		prior = c.history[len(c.history)-1-c.rng.Intn(min(len(c.history), resubmitWindow))]
	}
	c.issued++
	seed := prior.seed
	if op.fresh {
		seed = c.next
		c.next++
	}
	body, err := json.Marshal(service.RunSpec{Algorithm: l.cell.algo, Workload: l.cell.family, N: l.cell.n, Seed: seed})
	if err != nil {
		return op, err
	}

	l.mu.Lock()
	l.opSeq++
	opID := l.opSeq
	l.mu.Unlock()
	tr := l.tr
	root := tr.begin("serve-runs.op", opID, 0)
	defer tr.end(root)

	t0 := time.Now()
	var sub submitted
	sp := tr.begin("service.submit", opID, root)
	n, err := c.postJSON(l.base+"/v1/runs", body, &sub, 200, 202)
	tr.end(sp)
	if err != nil {
		return op, err
	}
	op.submit, op.cached, op.bytes = time.Since(t0), sub.Cached, n

	sp = tr.begin("service.rounds", opID, root)
	rounds, err := c.drain(l.base + "/v1/runs/" + sub.Job.ID + "/rounds")
	tr.end(sp)
	if err != nil {
		return op, err
	}
	op.first, op.done = rounds.first.Sub(t0), rounds.last.Sub(t0)

	sp = tr.begin("service.topology", opID, root)
	topo, err := c.drain(l.base + "/v1/runs/" + sub.Job.ID + "/topology?format=packed")
	tr.end(sp)
	if err != nil {
		return op, err
	}
	op.total = topo.last.Sub(t0)
	op.bytes += rounds.bytes + topo.bytes

	switch {
	case rounds.frames != l.ref.Rounds:
		return op, fmt.Errorf("run %s: %d /rounds frames, outcome has %d rounds", sub.Job.ID, rounds.frames, l.ref.Rounds)
	case topo.frames != l.ref.Rounds+1:
		return op, fmt.Errorf("run %s: %d /topology frames, want rounds+1 = %d", sub.Job.ID, topo.frames, l.ref.Rounds+1)
	case sub.Job.Outcome != nil && sub.Job.Outcome.Rounds != l.ref.Rounds:
		return op, fmt.Errorf("run %s: outcome reports %d rounds, the reference run %d", sub.Job.ID, sub.Job.Outcome.Rounds, l.ref.Rounds)
	case !op.fresh && (rounds.sum != prior.roundsSum || topo.sum != prior.topSum):
		return op, fmt.Errorf("run %s: replay of seed %d differs from the first stream's bytes", sub.Job.ID, seed)
	}
	if op.fresh {
		c.history = append(c.history, servedSpec{seed: seed, roundsSum: rounds.sum, topSum: topo.sum})
	}

	if tr != nil {
		// Not part of the op: the status carries the server's own
		// timestamps, on the same host clock as ours.
		var st service.JobStatus
		sp = tr.begin("service.status", opID, root)
		_, err := c.getJSON(l.base+"/v1/runs/"+sub.Job.ID, &st)
		tr.end(sp)
		if err != nil {
			return op, err
		}
		if st.Outcome == nil || st.Outcome.Rounds != rounds.frames {
			return op, fmt.Errorf("run %s: status outcome does not match the %d frames streamed", sub.Job.ID, rounds.frames)
		}
		if op.fresh && st.StartedAt != nil && st.FinishedAt != nil {
			op.staged = true
			op.queue = st.StartedAt.Sub(st.EnqueuedAt)
			op.exec = st.FinishedAt.Sub(*st.StartedAt)
			op.drain = max(rounds.last.Sub(*st.FinishedAt), 0)
			tr.addAbs("service.queue_wait", opID, root, st.EnqueuedAt, *st.StartedAt)
			tr.addAbs("service.exec", opID, root, *st.StartedAt, *st.FinishedAt)
		}
	}
	return op, nil
}

// measure runs ops for the given seconds (and at least minOps a client)
// and counts each into res.
func (l *serveLoad) measure(res *result, seconds float64) ([]serveOp, time.Duration, error) {
	return l.drive(res, func(done int, elapsed time.Duration) bool {
		return elapsed.Seconds() >= seconds && done >= l.cfg.size.minOps
	})
}

// drive runs every client's loop until stop — asked with the ops that
// client has done and the time since the start — says so, and returns
// the successful ops and the wall time from the first send to the last
// read. With res == nil (warm-up) the first failing op aborts.
func (l *serveLoad) drive(res *result, stop func(done int, elapsed time.Duration) bool) ([]serveOp, time.Duration, error) {
	var (
		mu   sync.Mutex
		ops  []serveOp
		fail error
		wg   sync.WaitGroup
	)
	start := time.Now()
	for _, c := range l.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []serveOp
			var errs []error
			for done := 0; !stop(done, time.Since(start)); done++ {
				op, err := l.one(c)
				errs = append(errs, err)
				if err != nil {
					if res == nil {
						break
					}
					continue
				}
				mine = append(mine, op)
			}
			mu.Lock()
			defer mu.Unlock()
			ops = append(ops, mine...)
			for _, err := range errs {
				if res != nil {
					res.op(err)
				} else if err != nil && fail == nil {
					fail = err
				}
			}
		}()
	}
	wg.Wait()
	return ops, time.Since(start), fail
}

func pick(ops []serveOp, keep func(serveOp) bool, get func(serveOp) time.Duration) []float64 {
	var out []float64
	for _, op := range ops {
		if keep(op) {
			out = append(out, ms(get(op)))
		}
	}
	return out
}

func isFresh(op serveOp) bool  { return op.fresh }
func isCached(op serveOp) bool { return !op.fresh && op.cached }
func isStaged(op serveOp) bool { return op.staged }

func runServeRuns(cfg *config) (*result, error) {
	res := newResult()
	load, err := newServeLoad(cfg)
	if err != nil {
		return nil, err
	}
	defer load.close()
	if cfg.tr != nil {
		return res, traceServe(cfg, res, load)
	}
	d, setups, err := setUp(cfg, deployServe, load.warmUp)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	ops, wall, err := load.measure(res, cfg.seconds)
	if err != nil {
		return nil, err
	}
	res.digest = digestOf(load.ref)
	res.set("setup_s", median(setups))
	res.set("op_ms_p50", median(pick(ops, isFresh, func(o serveOp) time.Duration { return o.total })))
	res.set("cells_per_s", float64(len(ops))/wall.Seconds())
	res.set("ns_per_node_round", ratio(float64(wall.Nanoseconds()), float64(len(ops)*load.ref.N*load.ref.Rounds)))
	res.set("peak_rss_mb", d.peakRSSMB())
	return res, nil
}

// ---- sweep-single and sweep-fleet ----

// sweepOp is one POST /v1/sweeps → /cells to the summary line →
// /aggregate, timed from the moment the POST was sent.
type sweepOp struct {
	submit     time.Duration
	first      time.Duration // first cell line read
	cells      time.Duration // summary line read
	total      time.Duration // aggregate in hand
	bytes      int
	nodeRounds int
	groups     json.RawMessage
	spec       service.SweepSpec
}

// sweepLoad is the generator shared by sweep-single and sweep-fleet:
// one client, sweeps back to back, every sweep over seeds no earlier
// sweep used, so no cell is ever answered from a cache.
type sweepLoad struct {
	cfg   *config
	base  string
	c     *client
	next  int64   // next unused seed
	tr    *tracer // set for the traced segment of a traced run only
	opSeq int
}

func newSweepLoad(cfg *config) *sweepLoad {
	return &sweepLoad{cfg: cfg, c: newClient(), next: cfg.seed << 32}
}

// sweepGrid is graph-to-star × {line, ring} × sizes × seeds from
// firstSeed on: cells of well under 2 ms, where the per-cell fixed costs
// are what is measured. graph-to-star passes on every seed of these two
// families (it does not on bounded-degree, power-law or random-tree;
// see the README).
func sweepGrid(size sizing, firstSeed int64) service.SweepSpec {
	seeds := make([]int64, size.sweepSeeds)
	for k := range seeds {
		seeds[k] = firstSeed + int64(k)
	}
	return service.SweepSpec{
		Algorithms: []string{expt.AlgoStar},
		Workloads:  []string{"line", "ring"},
		Sizes:      size.sweepSizes,
		Seeds:      seeds,
	}
}

// sweepAnswer is POST /v1/sweeps' answer.
type sweepAnswer struct {
	Sweep service.SweepStatus `json:"sweep"`
}

// aggregateAnswer is GET /v1/sweeps/{id}/aggregate with the groups
// kept as the bytes the server sent.
type aggregateAnswer struct {
	State  string          `json:"state"`
	Groups json.RawMessage `json:"groups"`
}

// one runs a single sweep and checks everything it returned. Cell-level
// verdicts are counted into res (one attempted op per cell); a
// sweep-level fault is returned.
func (l *sweepLoad) one(res *result) (sweepOp, error) {
	op := sweepOp{spec: sweepGrid(l.cfg.size, l.next)}
	l.next += int64(l.cfg.size.sweepSeeds)
	grid := op.spec.Expt()
	want := grid.NumCells()
	body, err := json.Marshal(op.spec)
	if err != nil {
		return op, err
	}
	l.opSeq++
	tr := l.tr
	root := tr.begin(l.cfg.workload+".op", l.opSeq, 0)
	defer tr.end(root)

	t0 := time.Now()
	var ans sweepAnswer
	sp := tr.begin("service.submit", l.opSeq, root)
	n, err := l.c.postJSON(l.base+"/v1/sweeps", body, &ans, 202)
	tr.end(sp)
	if err != nil {
		return op, err
	}
	op.submit, op.bytes = time.Since(t0), n

	sp = tr.begin("service.cells", l.opSeq, root)
	cs, err := l.c.drainCells(l.base+"/v1/sweeps/"+ans.Sweep.ID+"/cells", want)
	tr.end(sp)
	if err != nil {
		return op, err
	}
	op.first, op.cells = cs.first.Sub(t0), cs.last.Sub(t0)

	var agg aggregateAnswer
	sp = tr.begin("service.aggregate", l.opSeq, root)
	n, err = l.c.getJSON(l.base+"/v1/sweeps/"+ans.Sweep.ID+"/aggregate", &agg)
	tr.end(sp)
	if err != nil {
		return op, err
	}
	op.total = time.Since(t0)
	op.bytes += cs.bytes + n
	op.groups = agg.Groups

	results := make([]expt.CellResult, len(cs.cells))
	for i, c := range cs.cells {
		var err error
		switch {
		case c.Index != i:
			err = fmt.Errorf("sweep %s: line %d carries cell index %d", ans.Sweep.ID, i, c.Index)
		case c.Error != "" || c.Outcome == nil:
			err = fmt.Errorf("sweep %s: cell %d failed: %s", ans.Sweep.ID, i, c.Error)
		case !c.Outcome.LeaderOK || c.Outcome.FinalDiameter > 2:
			err = fmt.Errorf("sweep %s: cell %d: leader ok %v, final diameter %d (want a star)", ans.Sweep.ID, i, c.Outcome.LeaderOK, c.Outcome.FinalDiameter)
		default:
			op.nodeRounds += c.N * c.Outcome.Rounds
		}
		res.op(err)
		results[i] = expt.WireCellResult(c.Index, expt.Cell{
			Algorithm: c.Algorithm, Workload: c.Workload, N: c.N, Seed: c.Seed, MaxRounds: c.MaxRounds,
		}, c.FromCache, c.Outcome, c.Error)
	}
	switch s := cs.summary; {
	case len(cs.cells) != want:
		return op, fmt.Errorf("sweep %s: %d cells received, the grid has %d", ans.Sweep.ID, len(cs.cells), want)
	case s == nil || !*s.Done || s.ErrorCount != 0 || s.Cells != want:
		return op, fmt.Errorf("sweep %s: summary line %+v, want done with %d cells and no errors", ans.Sweep.ID, s, want)
	case agg.State != string(service.StateDone):
		return op, fmt.Errorf("sweep %s: aggregate served in state %q", ans.Sweep.ID, agg.State)
	}
	folded, err := json.Marshal(expt.Aggregate(results))
	if err != nil {
		return op, err
	}
	if !bytes.Equal(folded, agg.Groups) {
		return op, fmt.Errorf("sweep %s: served aggregate differs from the fold of the cells it streamed", ans.Sweep.ID)
	}
	return op, nil
}

// checkReference holds one measured sweep's served aggregate against
// expt.AggregateSweep of the same grid, run in this process: the
// byte-identity every deployment shape promises.
func checkReference(op sweepOp) error {
	groups, err := expt.AggregateSweep(op.spec.Expt())
	if err != nil {
		return err
	}
	want, err := json.Marshal(groups)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, op.groups) {
		return errors.New("served aggregate differs from expt.AggregateSweep of the same grid")
	}
	return nil
}

// warmUp points the load at a freshly deployed topology and runs the
// unmeasured warm-up sweeps.
func (l *sweepLoad) warmUp(d *deployment) error {
	l.base = d.base
	scratch := newResult()
	for i := 0; i < l.cfg.size.sweepWarm; i++ {
		if _, err := l.one(scratch); err != nil {
			return err
		}
	}
	if scratch.failed > 0 {
		return errors.New(scratch.problems[0])
	}
	return nil
}

// measure runs sweeps for the given seconds; a sweep-level fault counts
// as one more wrong output.
func (l *sweepLoad) measure(res *result, seconds float64) ([]sweepOp, time.Duration, error) {
	var ops []sweepOp
	wall, err := untilDone(l.cfg, seconds, func(int) error {
		op, err := l.one(res)
		if err != nil {
			res.wrong(err)
			return nil
		}
		ops = append(ops, op)
		return nil
	})
	return ops, wall, err
}

func runSweepSingle(cfg *config) (*result, error) { return runSweeps(cfg, deploySingle) }
func runSweepFleet(cfg *config) (*result, error)  { return runSweeps(cfg, deployFleet) }

func runSweeps(cfg *config, deployFn func(*config) (*deployment, error)) (*result, error) {
	res := newResult()
	load := newSweepLoad(cfg)
	defer load.c.close()
	if cfg.tr != nil {
		return res, traceSweeps(cfg, res, deployFn, load)
	}
	d, setups, err := setUp(cfg, deployFn, load.warmUp)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	ops, wall, err := load.measure(res, cfg.seconds)
	if err != nil {
		return nil, err
	}
	rss := d.peakRSSMB()
	d.stop()
	if len(ops) > 0 {
		res.digest = digestOf(ops[0].groups)
		if err := checkReference(ops[0]); err != nil {
			res.wrong(err)
		}
	}
	var opMS, nsPerNodeRound []float64
	for _, op := range ops {
		opMS = append(opMS, ms(op.total))
		nsPerNodeRound = append(nsPerNodeRound, ratio(float64(op.total.Nanoseconds()), float64(op.nodeRounds)))
	}
	res.set("setup_s", median(setups))
	res.set("op_ms_p50", median(opMS))
	res.set("cells_per_s", float64(res.attempted)/wall.Seconds())
	res.set("ns_per_node_round", median(nsPerNodeRound))
	res.set("peak_rss_mb", rss)
	return res, nil
}

// ---- /metrics deltas ----

// scrapeAll scrapes every server, timing the last request.
func scrapeAll(c *client, servers []*server) ([]*obs.Metrics, time.Duration, int, error) {
	pages := make([]*obs.Metrics, len(servers))
	var took time.Duration
	var size int
	for i, s := range servers {
		var err error
		if pages[i], took, size, err = c.scrape(s.base); err != nil {
			return nil, 0, 0, err
		}
	}
	return pages, took, size, nil
}

// grew is how much the samples of name (matching the labels) grew
// between two scrapes, summed over the servers.
func grew(before, after []*obs.Metrics, name string, match map[string]string) (total float64) {
	for i := range after {
		a, _ := after[i].Sum(name, match)
		b, _ := before[i].Sum(name, match)
		total += a - b
	}
	return total
}
