package expt

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
)

// synthCell builds a CellResult with the measures the aggregator reads.
func synthCell(algo, workload string, n int, seed int64, rounds, acts, msgs int) CellResult {
	return CellResult{
		Cell: Cell{Algorithm: algo, Workload: workload, N: n, Seed: seed},
		Outcome: Outcome{
			N: n, Rounds: rounds, TotalActivations: acts,
			MaxActivatedEdges: acts, MaxActivatedDegree: 2,
			TotalMessages: msgs, LeaderOK: true,
		},
	}
}

// TestAggregateClosedForm checks every statistic against hand-computed
// values: rounds {2, 4, 6} has mean 4, min 2, max 6 and population
// stddev sqrt(8/3); messages {10, 30} has mean 20 and stddev 10.
func TestAggregateClosedForm(t *testing.T) {
	t.Parallel()
	results := []CellResult{
		synthCell("a", "line", 8, 1, 2, 5, 10),
		synthCell("a", "line", 8, 2, 4, 5, 30),
		synthCell("a", "line", 8, 3, 6, 5, 20),
		synthCell("a", "line", 16, 1, 7, 9, 40), // second group: one seed
	}
	groups := Aggregate(results)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	g := groups[0]
	if g.Algorithm != "a" || g.Workload != "line" || g.N != 8 || g.Seeds != 3 || g.Errors != 0 || g.LeadersOK != 3 {
		t.Fatalf("group header = %+v", g)
	}
	if g.Rounds.Mean != 4 || g.Rounds.Min != 2 || g.Rounds.Max != 6 {
		t.Fatalf("rounds = %+v, want mean 4 min 2 max 6", g.Rounds)
	}
	if want := math.Sqrt(8.0 / 3.0); math.Abs(g.Rounds.StdDev-want) > 1e-12 {
		t.Fatalf("rounds stddev = %v, want %v", g.Rounds.StdDev, want)
	}
	// Constant series: stddev exactly zero, min == mean == max.
	if g.TotalActivations != (Stat{Mean: 5, Min: 5, Max: 5, StdDev: 0}) {
		t.Fatalf("activations = %+v, want constant 5", g.TotalActivations)
	}
	// Messages {10, 30, 20}: mean 20, population stddev sqrt(200/3).
	if g.TotalMessages.Mean != 20 || g.TotalMessages.Min != 10 || g.TotalMessages.Max != 30 {
		t.Fatalf("messages = %+v", g.TotalMessages)
	}
	if want := math.Sqrt(200.0 / 3.0); math.Abs(g.TotalMessages.StdDev-want) > 1e-12 {
		t.Fatalf("messages stddev = %v, want %v", g.TotalMessages.StdDev, want)
	}
	// Single-seed group: degenerate stats.
	g2 := groups[1]
	if g2.N != 16 || g2.Seeds != 1 || g2.Rounds != (Stat{Mean: 7, Min: 7, Max: 7}) {
		t.Fatalf("single-seed group = %+v", g2)
	}
}

// TestAggregateCountsErrorsPerGroup: failed cells are excluded from
// the statistics but reported in the group's error count.
func TestAggregateCountsErrorsPerGroup(t *testing.T) {
	t.Parallel()
	results := []CellResult{
		synthCell("a", "line", 8, 1, 10, 1, 1),
		{Cell: Cell{Algorithm: "a", Workload: "line", N: 8, Seed: 2}, Err: errors.New("boom")},
		synthCell("a", "line", 8, 3, 20, 1, 1),
	}
	groups := Aggregate(results)
	if len(groups) != 1 {
		t.Fatalf("groups = %d", len(groups))
	}
	g := groups[0]
	if g.Seeds != 2 || g.Errors != 1 {
		t.Fatalf("seeds/errors = %d/%d, want 2/1", g.Seeds, g.Errors)
	}
	if g.Rounds.Mean != 15 || g.Rounds.Min != 10 || g.Rounds.Max != 20 {
		t.Fatalf("rounds excludes the failed cell: %+v", g.Rounds)
	}
	if Aggregate(nil) != nil {
		t.Fatal("empty input must aggregate to nil")
	}
}

// TestAggregateDeterministicAcrossWorkers pins the byte-level
// determinism the service endpoint relies on: the marshaled aggregate
// of the same grid is identical no matter how many sweep workers
// executed it.
func TestAggregateDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	spec := SweepSpec{
		Algorithms: []string{AlgoStar, AlgoFlood},
		Workloads:  []string{"random-tree", "line"},
		Sizes:      []int{24, 48},
		Seeds:      []int64{1, 2, 3},
	}
	var base []byte
	for i, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		results, err := ExecuteSweep(spec, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out, err := json.Marshal(Aggregate(results))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = out
			continue
		}
		if !bytes.Equal(base, out) {
			t.Fatalf("workers=%d: aggregate bytes diverged:\n%s\nvs\n%s", workers, out, base)
		}
	}
	// Sanity on the shape: one group per (algorithm, workload, n).
	var groups []AggregateGroup
	if err := json.Unmarshal(base, &groups); err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2; len(groups) != want {
		t.Fatalf("groups = %d, want %d", len(groups), want)
	}
	for _, g := range groups {
		if g.Seeds != 3 || g.Errors != 0 || g.LeadersOK != 3 {
			t.Fatalf("group = %+v", g)
		}
		if g.Rounds.Min > g.Rounds.Mean || g.Rounds.Mean > g.Rounds.Max {
			t.Fatalf("unordered rounds stat: %+v", g.Rounds)
		}
		if g.TotalMessages.Mean <= 0 {
			t.Fatalf("no messages aggregated: %+v", g)
		}
	}
}

// TestAggregateCSV pins the CSV export: a header, one row per group,
// floats in shortest-exact form.
func TestAggregateCSV(t *testing.T) {
	t.Parallel()
	groups := Aggregate([]CellResult{
		synthCell("a", "line", 8, 1, 2, 5, 10),
		synthCell("a", "line", 8, 2, 4, 5, 30),
		synthCell("b", "ring", 16, 1, 7, 9, 40),
	})
	var buf bytes.Buffer
	if err := AggregateCSV(&buf, groups); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "algorithm,workload,n,seeds,errors,leaders_ok,rounds_mean,") ||
		!strings.Contains(lines[0], "total_messages_stddev") {
		t.Fatalf("header = %s", lines[0])
	}
	// Group a/line/8: rounds {2,4} → mean 3 min 2 max 4 stddev 1.
	if !strings.HasPrefix(lines[1], "a,line,8,2,0,2,3,2,4,1,") {
		t.Fatalf("row 1 = %s", lines[1])
	}
	if cols, want := strings.Count(lines[1], ",")+1, strings.Count(lines[0], ",")+1; cols != want {
		t.Fatalf("row has %d columns, header %d", cols, want)
	}
	if !strings.HasPrefix(lines[2], "b,ring,16,1,0,1,7,7,7,0,") {
		t.Fatalf("row 2 = %s", lines[2])
	}
}

// TestAggregateTableRendersEveryGroup keeps the CLI rendering honest:
// one row per group, spread shown only when it exists.
func TestAggregateTableRendersEveryGroup(t *testing.T) {
	t.Parallel()
	leaderless := synthCell("a", "line", 8, 2, 4, 5, 30)
	leaderless.Outcome.LeaderOK = false
	groups := Aggregate([]CellResult{
		synthCell("a", "line", 8, 1, 2, 5, 10),
		leaderless,
	})
	tab := AggregateTable(groups)
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	s := tab.String()
	if !strings.Contains(s, "3±1.00 [2–4]") {
		t.Fatalf("rounds cell missing mean±stddev [min–max]:\n%s", s)
	}
	if !strings.Contains(s, "1/2") { // leaders column is LeadersOK/Seeds
		t.Fatalf("table missing leader column:\n%s", s)
	}
}
