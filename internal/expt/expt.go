// Package expt is the experiment harness: it regenerates every
// table/figure-level claim of the paper (DESIGN.md § "Experiment index")
// as measured series, the tables `adnet -experiments` prints.
package expt

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"

	"adnet/internal/baseline"
	"adnet/internal/dynamics"
	"adnet/internal/graph"
	"adnet/internal/sim"
	"adnet/internal/tasks"
	"adnet/internal/temporal"
)

// Outcome is the unified measurement of one run, in the paper's cost
// measures (§2.2). The dynamics fields (environment edits and injected
// faults) are zero — and omitted from the wire shape — for runs
// without a dynamics environment, so pre-dynamics streams and caches
// stay byte-identical.
type Outcome struct {
	N                  int
	Rounds             int // rounds until every node halted
	LastActivity       int // last round with an edge activation/deactivation
	TotalActivations   int
	MaxActivatedEdges  int // max_i |E(i) \ E(1)|
	MaxActivatedDegree int
	TotalMessages      int // delivered point-to-point messages (0 for the centralized baseline)
	FinalDiameter      int // diameter of the final active graph
	FinalDepth         int // eccentricity of the elected leader
	LeaderOK           bool
	EnvActivations     int `json:"EnvActivations,omitempty"`   // edges the environment switched on
	EnvDeactivations   int `json:"EnvDeactivations,omitempty"` // edges the environment cut
	Crashes            int `json:"Crashes,omitempty"`          // node outages the engine applied
	Restarts           int `json:"Restarts,omitempty"`         // node restarts the engine applied
}

// An outcome record packs an Outcome: a flags byte whose top bit is
// LeaderOK and whose low seven bits are the holder's (a sweep's cell
// log keeps from_cache there), then Fields as signed varints.
const outcomeLeaderOK byte = 0x80

// Fields points at the integer fields of o in record and wire order:
// the four omitempty ones, which follow LeaderOK on the wire, last.
func (o *Outcome) Fields() [13]*int {
	return [13]*int{&o.N, &o.Rounds, &o.LastActivity, &o.TotalActivations, &o.MaxActivatedEdges,
		&o.MaxActivatedDegree, &o.TotalMessages, &o.FinalDiameter, &o.FinalDepth,
		&o.EnvActivations, &o.EnvDeactivations, &o.Crashes, &o.Restarts}
}

// AppendOutcome appends o's record, with flags (top bit clear), to buf.
func AppendOutcome(buf []byte, flags byte, o *Outcome) []byte {
	if o.LeaderOK {
		flags |= outcomeLeaderOK
	}
	buf = append(buf, flags)
	for _, f := range o.Fields() {
		buf = binary.AppendVarint(buf, int64(*f))
	}
	return buf
}

// ReadOutcome decodes exactly one record: the holder's flags and o.
func ReadOutcome(rec []byte) (flags byte, o Outcome, err error) {
	if len(rec) == 0 {
		return 0, o, fmt.Errorf("expt: outcome record: empty")
	}
	flags, rec, o.LeaderOK = rec[0]&^outcomeLeaderOK, rec[1:], rec[0]&outcomeLeaderOK != 0
	for _, f := range o.Fields() {
		x, w := binary.Varint(rec)
		if w <= 0 {
			return 0, Outcome{}, fmt.Errorf("expt: outcome record: truncated")
		}
		*f, rec = int(x), rec[w:]
	}
	if len(rec) != 0 {
		return 0, Outcome{}, fmt.Errorf("expt: outcome record: %d trailing bytes", len(rec))
	}
	return flags, o, nil
}

// Request names one deterministic run: an algorithm, a workload
// family, a size and a seed. It is the spec-driven entry point shared
// by the CLIs and the service layer (internal/service).
type Request struct {
	Algorithm string
	Workload  string
	N         int
	Seed      int64
	// Dynamics, when non-nil, attaches the described adversarial
	// environment (internal/dynamics) to the run: the network is
	// perturbed between rounds and the outcome's Env*/Crashes/Restarts
	// fields report the injected disruption. The centralized baseline
	// runs no simulation and rejects dynamics.
	Dynamics *dynamics.Spec
	// SimOpts are appended after the algorithm's own defaults, so
	// callers can override round limits or attach hooks. The
	// centralized baseline runs no simulation and ignores them.
	SimOpts []sim.Option
}

// Execute builds the workload and runs the algorithm on it, on a
// throwaway Runner; hold a Runner instead when executing many runs.
func Execute(req Request) (Outcome, error) {
	r := NewRunner()
	defer r.Close()
	return r.Execute(req)
}

// RunAlgorithm executes the named algorithm on gs through the
// Runner's engine, with extra simulation options appended after the
// algorithm's defaults, and judges the run (see judge). It is the one
// execution path behind Execute and ExecuteSweep. A run that fails
// returns its *sim.Failure together with its partial outcome: the
// rounds, messages, activations, environment edits, crashes and
// restarts it reached, with LeaderOK false and no walk of its graph.
func (r *Runner) RunAlgorithm(name string, gs *graph.Graph, extra ...sim.Option) (Outcome, error) {
	algo, err := lookup(name)
	if err != nil {
		return Outcome{}, err
	}
	if gs == nil || gs.NumNodes() == 0 {
		return Outcome{}, fmt.Errorf("expt: empty initial graph")
	}
	out := Outcome{N: gs.NumNodes()}
	if algo.factory == nil {
		res, err := baseline.EulerTourStrategy(gs)
		if err != nil {
			return Outcome{}, err
		}
		// The controller names its root the leader of every node.
		out.Rounds = res.Metrics.Rounds
		return algo.judge(r.eng.BFS(), out, res.Metrics, res.History.CurrentView(), gs.MaxID(), tasks.Election{Leader: res.Root, Leaders: 1})
	}

	// optBuf keeps the option list off the heap: sim options are
	// consumed inside Reset and never retained, so the backing array
	// can live on this frame.
	var optBuf [8]sim.Option
	opts := append(algo.appendDefaults(optBuf[:0], out.N), extra...)
	if err := r.eng.Reset(gs, algo.factory, opts...); err != nil {
		return Outcome{}, fmt.Errorf("expt: %s on n=%d: %w", name, out.N, err)
	}
	res, err := r.eng.Run()
	out.Rounds, out.TotalMessages, out.Crashes, out.Restarts = res.Rounds, res.TotalMessages, res.Crashes, res.Restarts
	if err != nil {
		out.measure(res.Metrics)
		return out, fmt.Errorf("expt: %s on n=%d: %w", name, out.N, err)
	}
	return algo.judge(r.eng.BFS(), out, res.Metrics, res.History.CurrentView(), gs.MaxID(), tasks.Elected(res))
}

// Verify applies RunAlgorithm's verdict to a finished simulation of
// the named algorithm, such as adnet.Run hands back.
func Verify(name string, res *sim.Result) error {
	algo, err := lookup(name)
	if err == nil {
		final := res.History.CurrentView()
		out := Outcome{N: final.NumNodes(), Crashes: res.Crashes, Restarts: res.Restarts}
		_, err = algo.judge(new(graph.BFSScratch), out, res.Metrics, final, final.MaxID(), tasks.Elected(res))
	}
	return err
}

// measure copies a run's edge measures into o.
func (o *Outcome) measure(met temporal.Metrics) {
	o.LastActivity, o.TotalActivations = met.LastActivityRound, met.TotalActivations
	o.MaxActivatedEdges, o.MaxActivatedDegree = met.MaxActivatedEdges, met.MaxActivatedDegree
	o.EnvActivations, o.EnvDeactivations = met.EnvActivations, met.EnvDeactivations
}

// judge is every run's tail: it fills out from the run's metrics and
// its final graph, measured in place through bfs, and applies the
// verdict (DESIGN.md § "The verdict"): u_max elected, then, where the
// entry's bound has a depth target, a spanning tree within it. The
// bound's other measures are no part of it: a slow run is not a wrong
// one. A failure is an Unverified
// *sim.Failure on an untouched run, returned with the measured outcome
// and LeaderOK false; once the environment acted, LeaderOK is the
// leader half and the tree half is skipped.
func (a *algorithm) judge(bfs *graph.BFSScratch, out Outcome, met temporal.Metrics, final *graph.Graph, umax graph.ID, elect tasks.Election) (Outcome, error) {
	out.measure(met)
	out.FinalDiameter = bfs.ApproxDiameter(final)
	if final.HasNode(umax) {
		out.FinalDepth = bfs.Eccentricity(final, umax)
	}
	err := tasks.VerifyElection(elect, umax)
	out.LeaderOK = err == nil
	if out.EnvActivations|out.EnvDeactivations|out.Crashes|out.Restarts != 0 {
		return out, nil
	}
	if depth := a.bound(out.N).Depth; err == nil && depth != 0 {
		err = tasks.VerifyTree(out.N, final.NumEdges(), out.FinalDepth, depth)
	}
	if err != nil {
		out.LeaderOK = false
		return out, fmt.Errorf("expt: %s on n=%d: %w", a.name, out.N, &sim.Failure{Kind: sim.Unverified, Round: out.Rounds, Detail: err.Error()})
	}
	return out, nil
}

// checkN reports whether every workload family can be built at size
// n: it needs at least two nodes, and its IDs 0..n-1 must be graph.IDs.
func checkN(n int) error {
	if n < 2 {
		return fmt.Errorf("expt: n must be at least 2, got %d", n)
	}
	if int64(n) > graph.MaxNodes {
		return fmt.Errorf("expt: n must be at most %d (graph.MaxNodes), got %d", int64(graph.MaxNodes), n)
	}
	return nil
}

// Workloads lists every initial-network family name accepted by
// Workload, aliases included.
func Workloads() []string {
	return []string{"line", "ring", "increasing-ring", "random-tree", "bounded-degree", "random", "star", "power-law", "small-world"}
}

// Workload builds the named initial-network family at size n.
func Workload(name string, n int, seed int64) (*graph.Graph, error) {
	return WorkloadInto(graph.New(), nil, name, n, seed)
}

// WorkloadInto builds the named family at size n into dst, resetting
// and reusing its backing arrays (see graph.Reset). scratch, when
// non-nil, is reused the same way by families that need an
// intermediate graph ("random" permutes a generated graph); a nil
// scratch is allocated on demand. The per-Runner arena behind
// engine-fleet sweeps calls this so repeated cells pay workload
// generation only on growth; the generated graph is identical to
// Workload's for equal parameters.
func WorkloadInto(dst, scratch *graph.Graph, name string, n int, seed int64) (*graph.Graph, error) {
	if !slices.Contains(Workloads(), name) {
		return nil, fmt.Errorf("expt: unknown workload %q (want one of %v)", name, Workloads())
	}
	// Validating here, before dispatch, keeps the contract uniform
	// instead of per-generator, also for callers that skip Validate.
	if err := checkN(n); err != nil {
		return nil, err
	}
	// The deterministic families skip the rng so their cells allocate
	// nothing per call.
	switch name {
	case "line":
		return graph.LineInto(dst, n), nil
	case "ring", "increasing-ring":
		return graph.IncreasingRingInto(dst, n), nil
	case "star":
		return graph.StarInto(dst, n), nil
	}
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "random-tree":
		return graph.RandomTreeInto(dst, n, rng), nil
	case "bounded-degree":
		return graph.RandomBoundedDegreeInto(dst, n, 4, n/2, rng)
	case "random":
		if scratch == nil {
			scratch = graph.New()
		}
		return graph.PermuteIDsInto(dst, graph.RandomConnectedInto(scratch, n, n, rng), rng), nil
	case "power-law":
		// Barabási–Albert preferential attachment, m=2 links per new
		// node: heavy-tailed degrees, hubs for targeted-cut to attack.
		return graph.PowerLawInto(dst, n, 2, rng), nil
	case "small-world":
		// Watts–Strogatz ring lattice (k=2 span) with 10% rewiring:
		// high clustering, short paths.
		return graph.SmallWorldInto(dst, n, 2, 0.1, rng), nil
	default:
		return nil, fmt.Errorf("expt: unknown workload %q (want one of %v)", name, Workloads())
	}
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper's claim this table checks
	Columns []string
	Rows    [][]string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "paper: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// logn is ⌈log2 n⌉ as used throughout the bounds.
func logn(n int) int { return bits.Len(uint(max(n-1, 0))) }

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
