package expt

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Stat summarizes one cost measure over the seeds of an aggregation
// group. StdDev is the population standard deviation (÷k, not ÷(k−1)):
// the seeds of a sweep are the whole population being reported, not a
// sample from a larger one.
type Stat struct {
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	StdDev float64 `json:"stddev"`
}

// statOf computes a Stat over xs in slice order. The two-pass formula
// (mean first, then squared deviations) accumulates in a fixed order,
// so the same inputs always produce bit-identical floats regardless of
// how many workers executed the sweep.
func statOf(xs []float64) Stat {
	if len(xs) == 0 {
		return Stat{}
	}
	s := Stat{Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	s.StdDev = math.Sqrt(sq / float64(len(xs)))
	return s
}

// AggregateGroup is the per-(algorithm, workload, n) summary over the
// seeds of a sweep — one row of the paper's tables: time (rounds),
// edge activations, and message volume per scheme and size.
type AggregateGroup struct {
	Algorithm string `json:"algorithm"`
	Workload  string `json:"workload"`
	N         int    `json:"n"`
	// Seeds counts the successful cells aggregated; Errors counts the
	// cells of this group excluded because their run failed (or was
	// canceled). Stats are over the successful cells only.
	Seeds  int `json:"seeds"`
	Errors int `json:"errors"`
	// LeadersOK counts successful cells that elected a unique correct
	// leader; equal to Seeds on a healthy sweep.
	LeadersOK int `json:"leaders_ok"`

	Rounds             Stat `json:"rounds"`
	TotalActivations   Stat `json:"total_activations"`
	MaxActivatedEdges  Stat `json:"max_activated_edges"`
	MaxActivatedDegree Stat `json:"max_activated_degree"`
	TotalMessages      Stat `json:"total_messages"`
}

// Aggregate folds sweep results into per-(algorithm, workload, n)
// groups, each summarizing its cost measures over the group's seeds.
// Results must be in canonical cell order (ExecuteSweep's output and
// Emit order) — seeds vary fastest there, so each group is one
// contiguous run and the output preserves grid order. Aggregation is
// pure slice arithmetic in that fixed order: its output — including
// the float statistics — is byte-for-byte deterministic for a given
// grid, regardless of sweep worker count.
func Aggregate(results []CellResult) []AggregateGroup {
	var groups []AggregateGroup
	for _, g := range Groups(results, resultCell) {
		groups = append(groups, aggregateGroup(g))
	}
	return groups
}

// aggregateGroup summarizes one contiguous (algorithm, workload, n)
// run of cells.
func aggregateGroup(cells []CellResult) AggregateGroup {
	g := AggregateGroup{
		Algorithm: cells[0].Cell.Algorithm,
		Workload:  cells[0].Cell.Workload,
		N:         cells[0].Cell.N,
	}
	var rounds, acts, maxEdges, maxDeg, msgs []float64
	for _, cr := range cells {
		if cr.Err != nil {
			g.Errors++
			continue
		}
		g.Seeds++
		if cr.Outcome.LeaderOK {
			g.LeadersOK++
		}
		rounds = append(rounds, float64(cr.Outcome.Rounds))
		acts = append(acts, float64(cr.Outcome.TotalActivations))
		maxEdges = append(maxEdges, float64(cr.Outcome.MaxActivatedEdges))
		maxDeg = append(maxDeg, float64(cr.Outcome.MaxActivatedDegree))
		msgs = append(msgs, float64(cr.Outcome.TotalMessages))
	}
	g.Rounds = statOf(rounds)
	g.TotalActivations = statOf(acts)
	g.MaxActivatedEdges = statOf(maxEdges)
	g.MaxActivatedDegree = statOf(maxDeg)
	g.TotalMessages = statOf(msgs)
	return g
}

// AggregateSweep executes the grid on a default engine fleet and
// folds the results — the one-call form behind the CLIs' -aggregate
// modes, computing exactly what the service's aggregate endpoint
// serves for the same grid.
func AggregateSweep(spec SweepSpec) ([]AggregateGroup, error) {
	results, err := ExecuteSweep(spec, SweepOptions{})
	if err != nil {
		return nil, err
	}
	return Aggregate(results), nil
}

// AggregateTable renders groups as an aligned text table, one row per
// (algorithm, workload, n) — the figure-ready shape of the paper's
// comparison tables (mean ± stddev [min–max] over seeds).
func AggregateTable(groups []AggregateGroup) *Table {
	t := &Table{
		ID:    "AGG",
		Title: "per-(algorithm, workload, n) aggregates over seeds",
		Claim: "time, edge-activation and message costs per scheme (§2.2 measures)",
		Columns: []string{
			"algorithm", "workload", "n", "seeds", "err", "leader",
			"rounds", "activations", "max act edges", "max act deg", "messages",
		},
	}
	for _, g := range groups {
		t.Rows = append(t.Rows, []string{
			g.Algorithm,
			g.Workload,
			strconv.Itoa(g.N),
			strconv.Itoa(g.Seeds),
			strconv.Itoa(g.Errors),
			fmt.Sprintf("%d/%d", g.LeadersOK, g.Seeds),
			fmtStat(g.Rounds),
			fmtStat(g.TotalActivations),
			fmtStat(g.MaxActivatedEdges),
			fmtStat(g.MaxActivatedDegree),
			fmtStat(g.TotalMessages),
		})
	}
	return t
}

// fmtStat renders mean±stddev with the spread when it is non-trivial.
func fmtStat(s Stat) string {
	if s.Min == s.Max {
		return trimFloat(s.Mean)
	}
	return fmt.Sprintf("%s±%s [%s–%s]",
		trimFloat(s.Mean), f2(s.StdDev), trimFloat(s.Min), trimFloat(s.Max))
}

// trimFloat renders integral values without a fraction.
func trimFloat(x float64) string {
	if x == math.Trunc(x) {
		return strconv.FormatFloat(x, 'f', 0, 64)
	}
	return strconv.FormatFloat(x, 'f', 2, 64)
}

// csvMeasures is the single source of truth for the CSV export's
// measure columns: the same entry yields a measure's header names and
// its row values, so the two cannot drift apart.
var csvMeasures = []struct {
	name string
	stat func(AggregateGroup) Stat
}{
	{"rounds", func(g AggregateGroup) Stat { return g.Rounds }},
	{"total_activations", func(g AggregateGroup) Stat { return g.TotalActivations }},
	{"max_activated_edges", func(g AggregateGroup) Stat { return g.MaxActivatedEdges }},
	{"max_activated_degree", func(g AggregateGroup) Stat { return g.MaxActivatedDegree }},
	{"total_messages", func(g AggregateGroup) Stat { return g.TotalMessages }},
}

// AggregateCSV writes groups as CSV — a header row, then one row per
// (algorithm, workload, n) group with mean/min/max/stddev columns for
// every cost measure. Floats use the shortest exact representation
// (strconv 'g', precision -1), so the export round-trips the aggregate
// bit-for-bit into plotting pipelines. This is the figure-ready shape
// behind the CLIs' -csv flags.
func AggregateCSV(w io.Writer, groups []AggregateGroup) error {
	cw := csv.NewWriter(w)
	header := []string{"algorithm", "workload", "n", "seeds", "errors", "leaders_ok"}
	for _, m := range csvMeasures {
		header = append(header, m.name+"_mean", m.name+"_min", m.name+"_max", m.name+"_stddev")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, g := range groups {
		row := []string{
			g.Algorithm, g.Workload,
			strconv.Itoa(g.N), strconv.Itoa(g.Seeds), strconv.Itoa(g.Errors), strconv.Itoa(g.LeadersOK),
		}
		for _, m := range csvMeasures {
			s := m.stat(g)
			row = append(row, f(s.Mean), f(s.Min), f(s.Max), f(s.StdDev))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
