package expt

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"adnet/internal/dynamics"
)

func robustnessTestSpec(workers int) RobustnessSpec {
	return RobustnessSpec{
		Grid: SweepSpec{
			Algorithms: []string{AlgoStar, AlgoWreath, AlgoThinWreath, AlgoClique, AlgoFlood},
			Workloads:  []string{"line"},
			Sizes:      []int{12},
			Seeds:      []int64{1, 2},
			MaxRounds:  300,
		},
		Dynamics: []dynamics.Spec{
			{Class: dynamics.ClassEdgeChurn, Rate: 1},
			{Class: dynamics.ClassTargetedCut, Rate: 1},
			{Class: dynamics.ClassBurst, Quiet: 2, Storm: 2},
			{Class: dynamics.ClassCrash, Down: 2},
		},
		Workers: workers,
	}
}

// TestRobustnessMatrixDeterministicAcrossWorkers is the PR's
// acceptance bar: the full matrix — all five distributed algorithms
// against four dynamics classes — renders byte-identically no matter
// how many sweep workers (one engine each) execute the sweeps.
func TestRobustnessMatrixDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	render := func(workers int) string {
		rows, err := RobustnessMatrix(robustnessTestSpec(workers))
		if err != nil {
			t.Fatalf("RobustnessMatrix(workers=%d): %v", workers, err)
		}
		js, err := RobustnessJSON(rows)
		if err != nil {
			t.Fatalf("RobustnessJSON: %v", err)
		}
		var csv bytes.Buffer
		if err := RobustnessCSV(&csv, rows); err != nil {
			t.Fatalf("RobustnessCSV: %v", err)
		}
		return string(js) + csv.String() + RobustnessTable(rows).String()
	}
	want := render(1)
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		if got := render(w); got != want {
			t.Fatalf("matrix diverged between workers=1 and workers=%d:\n%s\nvs\n%s", w, want, got)
		}
	}
}

func TestRobustnessMatrixShape(t *testing.T) {
	t.Parallel()
	spec := robustnessTestSpec(0)
	// A duplicate spec (same normalized key) must not add rows.
	spec.Dynamics = append(spec.Dynamics, dynamics.Spec{Class: dynamics.ClassEdgeChurn})
	rows, err := RobustnessMatrix(spec)
	if err != nil {
		t.Fatalf("RobustnessMatrix: %v", err)
	}
	// 5 algorithms x 1 workload x 1 size, each with baseline + 4
	// distinct environments.
	if len(rows) != 5*5 {
		t.Fatalf("%d rows, want 25", len(rows))
	}
	for i, r := range rows {
		if i%5 == 0 {
			if r.Dynamics != BaselineDynamicsKey {
				t.Fatalf("row %d: dynamics = %q, want baseline first per cell", i, r.Dynamics)
			}
			// The paper's constructions all succeed undisturbed.
			if r.Successes != r.Runs || r.Runs != 2 {
				t.Fatalf("baseline row %d: %d/%d succeeded", i, r.Successes, r.Runs)
			}
			if r.ActivationOverhead != 1 {
				t.Fatalf("baseline row %d: overhead = %v, want 1", i, r.ActivationOverhead)
			}
			if r.EnvEdits != 0 || r.Crashes != 0 || r.Restarts != 0 {
				t.Fatalf("baseline row %d carries env effects: %+v", i, r)
			}
		} else if r.Dynamics == BaselineDynamicsKey {
			t.Fatalf("row %d: unexpected baseline row", i)
		}
		if r.SuccessRate < 0 || r.SuccessRate > 1 {
			t.Fatalf("row %d: SuccessRate = %v", i, r.SuccessRate)
		}
	}
}

func TestRobustnessJSONRoundTrip(t *testing.T) {
	t.Parallel()
	rows := []RobustnessRow{
		{Algorithm: AlgoFlood, Workload: "line", N: 8, Dynamics: BaselineDynamicsKey,
			Runs: 2, Successes: 2, SuccessRate: 1, MeanRounds: 8.5, MeanActivations: 0, ActivationOverhead: 1},
		{Algorithm: AlgoFlood, Workload: "line", N: 8, Dynamics: "edge-churn,k=1,preserve=false,seed=0",
			Runs: 2, Successes: 1, SuccessRate: 0.5, MeanRounds: 9, EnvEdits: 17},
	}
	js, err := RobustnessJSON(rows)
	if err != nil {
		t.Fatalf("RobustnessJSON: %v", err)
	}
	back, err := ParseRobustness(js)
	if err != nil {
		t.Fatalf("ParseRobustness: %v", err)
	}
	js2, err := RobustnessJSON(back)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(js, js2) {
		t.Fatalf("snapshot did not round-trip:\n%s\nvs\n%s", js, js2)
	}
	if _, err := ParseRobustness([]byte("{")); err == nil {
		t.Fatalf("ParseRobustness accepted garbage")
	}
}

func TestCompareRobustness(t *testing.T) {
	t.Parallel()
	base := []RobustnessRow{
		{Algorithm: AlgoFlood, Workload: "line", N: 8, Dynamics: "none", Runs: 2, Successes: 2},
		{Algorithm: AlgoClique, Workload: "line", N: 8, Dynamics: "none", Runs: 2, Successes: 1},
	}
	// Identical matrix passes; improvements and extra rows pass too.
	cur := []RobustnessRow{base[0], {Algorithm: AlgoClique, Workload: "line", N: 8, Dynamics: "none", Runs: 2, Successes: 2},
		{Algorithm: AlgoStar, Workload: "ring", N: 16, Dynamics: "none", Runs: 2, Successes: 0}}
	if err := CompareRobustness(cur, base); err != nil {
		t.Fatalf("improvement flagged as regression: %v", err)
	}
	// A success drop is a regression.
	drop := []RobustnessRow{base[0], {Algorithm: AlgoClique, Workload: "line", N: 8, Dynamics: "none", Runs: 2, Successes: 0}}
	if err := CompareRobustness(drop, base); err == nil || !strings.Contains(err.Error(), "succeeded") {
		t.Fatalf("success drop not flagged: %v", err)
	}
	// A missing row is a regression.
	if err := CompareRobustness(cur[:1], base); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing row not flagged: %v", err)
	}
	// A run-count change is grid drift.
	drift := []RobustnessRow{base[0], {Algorithm: AlgoClique, Workload: "line", N: 8, Dynamics: "none", Runs: 4, Successes: 4}}
	if err := CompareRobustness(drift, base); err == nil || !strings.Contains(err.Error(), "grid drifted") {
		t.Fatalf("grid drift not flagged: %v", err)
	}
}

func TestRobustnessSpecValidate(t *testing.T) {
	t.Parallel()
	spec := robustnessTestSpec(0)
	spec.Dynamics = nil
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "at least one dynamics spec") {
		t.Fatalf("empty dynamics accepted: %v", err)
	}
	spec = robustnessTestSpec(0)
	spec.Dynamics[0].Class = "meteor"
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "unknown class") {
		t.Fatalf("bad dynamics class accepted: %v", err)
	}
	spec = robustnessTestSpec(0)
	spec.Grid.Algorithms = []string{AlgoCentralized}
	if err := spec.Validate(); err == nil {
		t.Fatalf("centralized + dynamics accepted")
	}
}

// TestRobustnessRowCountsFailedRunsDisruption: a row whose runs all
// fail still sums the disruption they absorbed before failing — the
// environment's edits and the engine's crashes and restarts — instead
// of reading zero.
func TestRobustnessRowCountsFailedRunsDisruption(t *testing.T) {
	t.Parallel()
	rows, err := RobustnessMatrix(RobustnessSpec{
		Grid: SweepSpec{Algorithms: []string{AlgoStar}, Workloads: []string{"line"}, Sizes: []int{32}, Seeds: []int64{1, 2, 3}},
		Dynamics: []dynamics.Spec{
			{Class: dynamics.ClassEdgeChurn, Rate: 1},
			{Class: dynamics.ClassCrash},
		},
	})
	if err != nil {
		t.Fatalf("RobustnessMatrix: %v", err)
	}
	churn, crash := rows[1], rows[2]
	if churn.Successes != 0 || crash.Successes != 0 {
		t.Fatalf("fixture drifted: %d and %d of 3 runs succeed, want none", churn.Successes, crash.Successes)
	}
	if churn.EnvEdits == 0 {
		t.Errorf("edge-churn row %+v counts no environment edits", churn)
	}
	if crash.Crashes == 0 || crash.Restarts == 0 {
		t.Errorf("crash row %+v counts no crashes or restarts", crash)
	}
}
