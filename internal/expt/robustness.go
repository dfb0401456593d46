package expt

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"adnet/internal/dynamics"
)

// BaselineDynamicsKey labels the no-environment rows of a robustness
// matrix.
const BaselineDynamicsKey = "none"

// RobustnessSpec describes a robustness matrix: the sweep grid to run
// once undisturbed (the baseline) and once per dynamics environment,
// measuring how gracefully each algorithm degrades under each class of
// adversarial perturbation.
type RobustnessSpec struct {
	// Grid is the sweep every column of the matrix runs. Its Dynamics
	// field is the matrix's to set: nil for the baseline, one entry of
	// Dynamics below per environment. Its MaxRounds, when positive,
	// overrides every run's round limit; the engine's default cap
	// (64·n + 64) already bounds runs an environment keeps from
	// halting.
	Grid SweepSpec
	// Dynamics lists the environments to measure against the baseline.
	// Duplicate specs (equal keys after normalization) are ignored
	// after the first.
	Dynamics []dynamics.Spec
	// Workers sizes each sweep's engine fleet (default GOMAXPROCS).
	// Matrix rows are byte-identical for every worker count.
	Workers int
}

// Validate checks the grid once and every dynamics spec once.
func (s RobustnessSpec) Validate() error {
	if err := s.sweep(nil).Validate(); err != nil {
		return err
	}
	if len(s.Dynamics) == 0 {
		return fmt.Errorf("expt: robustness matrix needs at least one dynamics spec")
	}
	for _, d := range s.Dynamics {
		if err := d.Validate(); err != nil {
			return err
		}
	}
	return requireSimulated(s.Grid.Algorithms...)
}

// sweep is the matrix column under dyn: the grid with that environment
// attached (nil for the baseline).
func (s RobustnessSpec) sweep(dyn *dynamics.Spec) SweepSpec {
	grid := s.Grid
	grid.Dynamics = dyn
	return grid
}

// RobustnessRow is one (algorithm, workload, n, dynamics) summary over
// the grid's seeds. A run succeeds when it completes within its round
// limit and passes its verdict (the leader alone, once the environment
// acted); under dynamics both can fail, and the row says how often.
// ActivationOverhead is the mean activation cost relative to the same
// cell's undisturbed baseline (1.0 = none; 0 if a side has no success).
type RobustnessRow struct {
	Algorithm          string  `json:"algorithm"`
	Workload           string  `json:"workload"`
	N                  int     `json:"n"`
	Dynamics           string  `json:"dynamics"` // dynamics.Spec.Key(), or "none"
	Runs               int     `json:"runs"`
	Successes          int     `json:"successes"`
	SuccessRate        float64 `json:"success_rate"`
	MeanRounds         float64 `json:"mean_rounds"`      // over successful runs
	MeanActivations    float64 `json:"mean_activations"` // over successful runs
	ActivationOverhead float64 `json:"activation_overhead"`
	EnvEdits           int     `json:"env_edits"` // environment edge edits, summed over runs
	Crashes            int     `json:"crashes"`
	Restarts           int     `json:"restarts"`
}

// RobustnessMatrix runs the grid once without dynamics and once per
// dynamics spec, and folds each sweep into per-(algorithm, workload,
// n) rows. Rows are grouped cell-major: each grid cell's baseline row
// first, then one row per environment in spec order. Sweeps run in
// ExecuteSweep's canonical cell order and the fold is pure slice
// arithmetic in that order, so the matrix — floats included — is
// byte-for-byte deterministic for a given spec, regardless of worker
// count.
func RobustnessMatrix(spec RobustnessSpec) ([]RobustnessRow, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	opts := SweepOptions{Workers: spec.Workers}

	base, err := ExecuteSweep(spec.sweep(nil), opts)
	if err != nil {
		return nil, err
	}
	baseRows := foldRobustness(base, BaselineDynamicsKey)
	for i := range baseRows {
		if baseRows[i].Successes > 0 {
			baseRows[i].ActivationOverhead = 1
		}
	}

	variants := make([][]RobustnessRow, 0, len(spec.Dynamics))
	seen := map[string]bool{}
	for i := range spec.Dynamics {
		d := spec.Dynamics[i].Normalize()
		key := d.Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		results, err := ExecuteSweep(spec.sweep(&d), opts)
		if err != nil {
			return nil, err
		}
		rows := foldRobustness(results, key)
		// Every sweep enumerates the same grid, so rows align by index
		// with the baseline fold.
		for j := range rows {
			if rows[j].Successes > 0 && baseRows[j].MeanActivations > 0 {
				rows[j].ActivationOverhead = rows[j].MeanActivations / baseRows[j].MeanActivations
			}
		}
		variants = append(variants, rows)
	}

	out := make([]RobustnessRow, 0, len(baseRows)*(len(variants)+1))
	for i := range baseRows {
		out = append(out, baseRows[i])
		for _, rows := range variants {
			out = append(out, rows[i])
		}
	}
	return out, nil
}

// foldRobustness groups canonical-order sweep results by (algorithm,
// workload, n) — seeds vary fastest — into robustness rows.
func foldRobustness(results []CellResult, dynKey string) []RobustnessRow {
	var rows []RobustnessRow
	for _, g := range Groups(results, resultCell) {
		c := g[0].Cell
		row := RobustnessRow{Algorithm: c.Algorithm, Workload: c.Workload, N: c.N, Dynamics: dynKey}
		var sumRounds, sumActs int
		for _, cr := range g {
			row.Runs++
			row.EnvEdits += cr.Outcome.EnvActivations + cr.Outcome.EnvDeactivations
			row.Crashes += cr.Outcome.Crashes
			row.Restarts += cr.Outcome.Restarts
			if cr.Err != nil || !cr.Outcome.LeaderOK {
				continue
			}
			row.Successes++
			sumRounds += cr.Outcome.Rounds
			sumActs += cr.Outcome.TotalActivations
		}
		row.SuccessRate = float64(row.Successes) / float64(row.Runs)
		if row.Successes > 0 {
			row.MeanRounds = float64(sumRounds) / float64(row.Successes)
			row.MeanActivations = float64(sumActs) / float64(row.Successes)
		}
		rows = append(rows, row)
	}
	return rows
}

// RobustnessTable renders matrix rows as an aligned text table.
func RobustnessTable(rows []RobustnessRow) *Table {
	t := &Table{
		ID:    "ROBUST",
		Title: "success and overhead per (algorithm, workload, n, dynamics)",
		Claim: "graceful degradation under adversarial dynamics (related work: passively dynamic networks)",
		Columns: []string{
			"algorithm", "workload", "n", "dynamics", "ok",
			"rounds", "activations", "overhead", "env edits", "crashes",
		},
	}
	for _, r := range rows {
		overhead := "-"
		if r.ActivationOverhead > 0 {
			overhead = f2(r.ActivationOverhead)
		}
		crashes := "-"
		if r.Crashes > 0 {
			crashes = fmt.Sprintf("%d/%d", r.Crashes, r.Restarts)
		}
		t.Rows = append(t.Rows, []string{
			r.Algorithm,
			r.Workload,
			strconv.Itoa(r.N),
			r.Dynamics,
			fmt.Sprintf("%d/%d", r.Successes, r.Runs),
			trimFloat(r.MeanRounds),
			trimFloat(r.MeanActivations),
			overhead,
			strconv.Itoa(r.EnvEdits),
			crashes,
		})
	}
	return t
}

// RobustnessCSV writes matrix rows as CSV, floats in shortest exact
// form so the export round-trips bit-for-bit.
func RobustnessCSV(w io.Writer, rows []RobustnessRow) error {
	cw := csv.NewWriter(w)
	header := []string{
		"algorithm", "workload", "n", "dynamics", "runs", "successes",
		"success_rate", "mean_rounds", "mean_activations", "activation_overhead",
		"env_edits", "crashes", "restarts",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, r := range rows {
		if err := cw.Write([]string{
			r.Algorithm, r.Workload, strconv.Itoa(r.N), r.Dynamics,
			strconv.Itoa(r.Runs), strconv.Itoa(r.Successes),
			f(r.SuccessRate), f(r.MeanRounds), f(r.MeanActivations), f(r.ActivationOverhead),
			strconv.Itoa(r.EnvEdits), strconv.Itoa(r.Crashes), strconv.Itoa(r.Restarts),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RobustnessJSON renders matrix rows as indented JSON — the snapshot
// format committed as ROBUSTNESS_LATEST.json and consumed by
// CompareRobustness in CI.
func RobustnessJSON(rows []RobustnessRow) ([]byte, error) {
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseRobustness decodes a RobustnessJSON snapshot.
func ParseRobustness(data []byte) ([]RobustnessRow, error) {
	var rows []RobustnessRow
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("expt: bad robustness snapshot: %w", err)
	}
	return rows, nil
}

// CompareRobustness gates current matrix rows against a committed
// baseline snapshot: every baseline row must be present (matched by
// algorithm, workload, n and dynamics key) with at least as many
// successes. Runs are deterministic, so a success count can only drop
// through a code change — the gate makes that change bump the
// snapshot deliberately, like the benchmark baseline. Extra current
// rows (a grown matrix) pass.
func CompareRobustness(current, baseline []RobustnessRow) error {
	type key struct {
		algorithm, workload, dynamics string
		n                             int
	}
	cur := make(map[key]RobustnessRow, len(current))
	for _, r := range current {
		cur[key{r.Algorithm, r.Workload, r.Dynamics, r.N}] = r
	}
	var regressions []string
	for _, b := range baseline {
		k := key{b.Algorithm, b.Workload, b.Dynamics, b.N}
		c, ok := cur[k]
		if !ok {
			regressions = append(regressions, fmt.Sprintf(
				"%s/%s n=%d dyn=%s: row missing from current matrix", b.Algorithm, b.Workload, b.N, b.Dynamics))
			continue
		}
		if c.Runs != b.Runs {
			regressions = append(regressions, fmt.Sprintf(
				"%s/%s n=%d dyn=%s: %d runs, baseline had %d (grid drifted)",
				b.Algorithm, b.Workload, b.N, b.Dynamics, c.Runs, b.Runs))
			continue
		}
		if c.Successes < b.Successes {
			regressions = append(regressions, fmt.Sprintf(
				"%s/%s n=%d dyn=%s: %d/%d succeeded, baseline had %d/%d",
				b.Algorithm, b.Workload, b.N, b.Dynamics, c.Successes, c.Runs, b.Successes, b.Runs))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("expt: robustness regression:\n  %s", strings.Join(regressions, "\n  "))
	}
	return nil
}
